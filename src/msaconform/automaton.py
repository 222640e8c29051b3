"""Deterministic frequency-labeled state machines and their DOT serialization.

The on-disk format is a small DOT subset::

    digraph sm {
    __start -> 0;
    0 -> 1 [label="a→b:GET /x | 5"];
    }

Symbols may not contain ``"`` or ``|``. A trace is accepted iff every
symbol has a defined transition along the walk from the initial state;
there is no accepting-state set.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, TypeVar

from .errors import InputError, clip, too_many_digits

@dataclass(frozen=True)
class StateMachine:
    """All states reachable from ``initial``, all frequencies positive: the
    program's producers build it so, and ``parse_state_machine`` checks it."""

    states: frozenset[int]
    initial: int
    transitions: dict[tuple[int, str], tuple[int, int]]  # (state, symbol) -> (target, frequency)
    name: str | None = None


Node = TypeVar("Node", bound=Hashable)


def breadth_first(
    starts: Iterable[Node], successors: Mapping[Node, Iterable[Node]]
) -> dict[Node, int]:
    """Every node reachable from ``starts``, in the order a breadth-first search
    finds it, with its distance from the nearest start. ``successors`` lists each
    node's successors in visiting order; a node it lacks has none."""
    dist = dict.fromkeys(starts, 0)
    queue = deque(dist)
    while queue:
        node = queue.popleft()
        step = dist[node] + 1
        for nxt in successors.get(node, ()):
            if nxt not in dist:
                dist[nxt] = step
                queue.append(nxt)
    return dist


def reachable_states(
    initial: int, transitions: dict[tuple[int, str], tuple[int, int]]
) -> dict[int, int]:
    """States reachable from ``initial`` over ``transitions``, ``initial`` included,
    with their breadth-first distance from it."""
    adj: dict[int, list[int]] = {}
    for (src, _sym), (dst, _f) in transitions.items():
        adj.setdefault(src, []).append(dst)
    return breadth_first([initial], adj)


def _malformed(line_no: int, reason: str) -> InputError:
    return InputError(f"malformed dot at line {line_no}: {reason}")


_START_RE = re.compile(r"^__start\s*->\s*(\d+)$")
_TRANS_RE = re.compile(r'^(\d+)\s*->\s*(\d+)\s*\[label="([^"|]*) \| (\d+)"\]$')


def parse_state_machine(dot_text: str, name: str | None = None) -> StateMachine:
    """Parse the DOT subset into a StateMachine, checking that frequencies are
    positive and that every state is reachable from the initial one."""
    stripped = dot_text.strip()
    if not stripped.startswith("digraph sm {") or not stripped.endswith("}"):
        raise _malformed(1, "expected 'digraph sm { ... }'")
    body = stripped[len("digraph sm {"): -1]

    initial: int | None = None
    transitions: dict[tuple[int, str], tuple[int, int]] = {}
    # newlines before the current statement, carried statement by statement
    newlines = dot_text.count("\n", 0, dot_text.index("{"))
    for raw_stmt in body.split(";"):
        stmt = raw_stmt.strip()
        leading_ws = len(raw_stmt) - len(raw_stmt.lstrip())
        line_no = newlines + raw_stmt.count("\n", 0, leading_ws) + 1
        newlines += raw_stmt.count("\n")
        if not stmt:
            continue
        m = _START_RE.match(stmt)
        if m:
            if initial is not None:
                raise _malformed(line_no, "duplicate __start line")
            try:
                initial = int(m.group(1))
            except ValueError:  # more digits than int() converts
                raise _malformed(line_no, too_many_digits()) from None
            continue
        m = _TRANS_RE.match(stmt)
        if m is None:
            raise _malformed(line_no, f"unrecognized statement {clip(stmt)!r}")
        if initial is None:
            raise _malformed(line_no, "transition before __start line")
        try:
            src, dst, freq = int(m.group(1)), int(m.group(2)), int(m.group(4))
        except ValueError:  # more digits than int() converts
            raise _malformed(line_no, too_many_digits()) from None
        symbol = m.group(3)
        if freq < 1:
            raise _malformed(line_no, "frequency must be positive")
        if (src, symbol) in transitions:
            raise InputError(f"state {clip(str(src))} has two transitions on {clip(symbol)!r}")
        transitions[(src, symbol)] = (dst, freq)
    if initial is None:
        raise _malformed(1, "missing __start line")

    states = {initial}
    for (src, _sym), (dst, _f) in transitions.items():
        states.add(src)
        states.add(dst)
    states = frozenset(states)
    for state in states.difference(reachable_states(initial, transitions)):
        raise InputError(f"state {clip(str(state))} is unreachable from the initial state")
    return StateMachine(states, initial, transitions, name=name)


def serialize_state_machine(sm: StateMachine) -> str:
    """Canonical text: transitions sorted by (source id, label), LF endings."""
    lines = ["digraph sm {", f"__start -> {sm.initial};"]
    for (src, sym), (dst, freq) in sorted(sm.transitions.items()):
        lines.append(f'{src} -> {dst} [label="{sym} | {freq}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def canonicalize(
    initial: int, transitions: dict[tuple[int, str], tuple[int, int]], name: str | None = None
) -> StateMachine:
    """The machine ``initial`` reaches over ``transitions``, with states renumbered
    breadth-first, exploring symbols in sorted order. A transition that leaves
    a state ``initial`` does not reach is dropped."""
    succ: dict[int, list[int]] = {}  # targets in symbol order
    for (src, _sym), (dst, _f) in sorted(transitions.items()):
        succ.setdefault(src, []).append(dst)
    order = {state: i for i, state in enumerate(breadth_first([initial], succ))}
    renumbered = {
        (order[src], sym): (order[dst], freq)
        for (src, sym), (dst, freq) in transitions.items()
        if src in order
    }
    return StateMachine(frozenset(order.values()), 0, renumbered, name=name)


def accepts(sm: StateMachine, trace: Iterable[str]) -> bool:
    """Walk from the initial state; reject at the first undefined transition."""
    state = sm.initial
    for symbol in trace:
        nxt = sm.transitions.get((state, symbol))
        if nxt is None:
            return False
        state = nxt[0]
    return True

