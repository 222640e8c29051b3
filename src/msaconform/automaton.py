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
from typing import Callable, Iterable

from .errors import MalformedDot, NondeterministicTransition, UnreachableState

@dataclass(frozen=True)
class StateMachine:
    states: frozenset[int]
    initial: int
    transitions: dict[tuple[int, str], tuple[int, int]]  # (state, symbol) -> (target, frequency)
    name: str | None = None

    def __post_init__(self):
        if self.initial not in self.states:
            raise UnreachableState(self.initial)
        for (src, _sym), (dst, freq) in self.transitions.items():
            if src not in self.states or dst not in self.states:
                raise UnreachableState(dst if dst not in self.states else src)
            if freq < 1:
                raise ValueError(f"transition frequency must be positive, got {freq}")
        for state in self.states - reachable_states(self.initial, self.transitions):
            raise UnreachableState(state)


def reachable_states(
    initial: int, transitions: dict[tuple[int, str], tuple[int, int]]
) -> set[int]:
    """States reachable from ``initial`` over ``transitions``, ``initial`` included."""
    adj: dict[int, list[int]] = {}
    for (src, _sym), (dst, _f) in transitions.items():
        adj.setdefault(src, []).append(dst)
    seen = {initial}
    queue = deque([initial])
    while queue:
        s = queue.popleft()
        for t in adj.get(s, ()):
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


_START_RE = re.compile(r"^__start\s*->\s*(\d+)$")
_TRANS_RE = re.compile(r'^(\d+)\s*->\s*(\d+)\s*\[label="([^"|]*) \| (\d+)"\]$')


def parse_state_machine(dot_text: str, name: str | None = None) -> StateMachine:
    """Parse the DOT subset into a validated StateMachine."""
    stripped = dot_text.strip()
    if not stripped.startswith("digraph sm {") or not stripped.endswith("}"):
        raise MalformedDot(1, "expected 'digraph sm { ... }'")
    body = stripped[len("digraph sm {"): -1]

    initial: int | None = None
    transitions: dict[tuple[int, str], tuple[int, int]] = {}
    offset = dot_text.index("{") + 1
    for raw_stmt in body.split(";"):
        stmt = raw_stmt.strip()
        leading_ws = len(raw_stmt) - len(raw_stmt.lstrip())
        line_no = dot_text.count("\n", 0, offset + leading_ws) + 1
        offset += len(raw_stmt) + 1
        if not stmt:
            continue
        m = _START_RE.match(stmt)
        if m:
            if initial is not None:
                raise MalformedDot(line_no, "duplicate __start line")
            initial = int(m.group(1))
            continue
        m = _TRANS_RE.match(stmt)
        if m is None:
            raise MalformedDot(line_no, f"unrecognized statement {stmt!r}")
        if initial is None:
            raise MalformedDot(line_no, "transition before __start line")
        src, dst = int(m.group(1)), int(m.group(2))
        symbol, freq = m.group(3), int(m.group(4))
        if freq < 1:
            raise MalformedDot(line_no, "frequency must be positive")
        if (src, symbol) in transitions:
            raise NondeterministicTransition(src, symbol)
        transitions[(src, symbol)] = (dst, freq)
    if initial is None:
        raise MalformedDot(1, "missing __start line")

    states = {initial}
    for (src, _sym), (dst, _f) in transitions.items():
        states.add(src)
        states.add(dst)
    return StateMachine(frozenset(states), initial, transitions, name=name)


def serialize_state_machine(sm: StateMachine) -> str:
    """Canonical text: transitions sorted by (source id, label), LF endings."""
    lines = ["digraph sm {", f"__start -> {sm.initial};"]
    for (src, sym), (dst, freq) in sorted(sm.transitions.items()):
        lines.append(f'{src} -> {dst} [label="{sym} | {freq}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def canonicalize(sm: StateMachine) -> StateMachine:
    """Renumber states breadth-first, exploring symbols in sorted order."""
    order: dict[int, int] = {sm.initial: 0}
    queue = deque([sm.initial])
    succ: dict[int, list[tuple[str, int]]] = {}
    for (src, sym), (dst, _f) in sm.transitions.items():
        succ.setdefault(src, []).append((sym, dst))
    while queue:
        s = queue.popleft()
        for _sym, dst in sorted(succ.get(s, ())):
            if dst not in order:
                order[dst] = len(order)
                queue.append(dst)
    transitions = {
        (order[src], sym): (order[dst], freq)
        for (src, sym), (dst, freq) in sm.transitions.items()
    }
    return StateMachine(frozenset(order.values()), 0, transitions, name=sm.name)


def accepts(sm: StateMachine, trace: Iterable[str]) -> bool:
    """Walk from the initial state; reject at the first undefined transition."""
    state = sm.initial
    for symbol in trace:
        nxt = sm.transitions.get((state, symbol))
        if nxt is None:
            return False
        state = nxt[0]
    return True


def transition_frequencies(
    sm: StateMachine, symbol_filter: Callable[[str], bool] | None = None
) -> list[tuple[str, int]]:
    """Total frequency per symbol, descending, ties broken lexicographically."""
    totals: dict[str, int] = {}
    for (_src, sym), (_dst, freq) in sm.transitions.items():
        if symbol_filter is None or symbol_filter(sym):
            totals[sym] = totals.get(sym, 0) + freq
    return sorted(totals.items(), key=lambda item: (-item[1], item[0]))
