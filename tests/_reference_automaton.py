"""Reference graph walks: ``reachable_states`` and ``canonicalize`` as they were
before ``msaconform.automaton.breadth_first``, each with its own queue loop,
kept verbatim as a test oracle. ``test_automaton.py`` requires the package's
versions to give the same reachable set and the same canonical machine.

Also the reference ``.dot`` parser: ``parse_state_machine`` as it was when it
stripped, sliced and split the whole text, kept verbatim. ``test_automaton.py``
requires the package's parser to return an equal machine or raise the same
error on every text.
"""

from __future__ import annotations

import re
from collections import deque

from msaconform.automaton import StateMachine
from msaconform.errors import InputError, clip, too_many_digits


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


def canonicalize(
    initial: int, transitions: dict[tuple[int, str], tuple[int, int]], name: str | None = None
) -> StateMachine:
    """The machine ``initial`` reaches over ``transitions``, with states renumbered
    breadth-first, exploring symbols in sorted order. A transition that leaves
    a state ``initial`` does not reach is dropped."""
    order: dict[int, int] = {initial: 0}
    queue = deque([initial])
    succ: dict[int, list[tuple[str, int]]] = {}
    for (src, sym), (dst, _f) in transitions.items():
        succ.setdefault(src, []).append((sym, dst))
    while queue:
        s = queue.popleft()
        for _sym, dst in sorted(succ.get(s, ())):
            if dst not in order:
                order[dst] = len(order)
                queue.append(dst)
    renumbered = {
        (order[src], sym): (order[dst], freq)
        for (src, sym), (dst, freq) in transitions.items()
        if src in order
    }
    return StateMachine(frozenset(order.values()), 0, renumbered, name=name)


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
