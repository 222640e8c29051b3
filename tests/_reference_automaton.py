"""Reference graph walks: ``reachable_states`` and ``canonicalize`` as they were
before ``msaconform.automaton.breadth_first``, each with its own queue loop,
kept verbatim as a test oracle. ``test_automaton.py`` requires the package's
versions to give the same reachable set and the same canonical machine.
"""

from __future__ import annotations

from collections import deque

from msaconform.automaton import StateMachine


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
