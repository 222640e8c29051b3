"""Reference detail code: the per-finding sub-machine and call lists as they
were before ``msaconform.interpret.CallIndex``, kept verbatim as a test
oracle, with ``transition_frequencies``, which only they use.

Every call re-parses all of the machine's symbols, rebuilds its adjacency
and reruns the breadth-first search from the initial state, so it is slow
on large machines but simple enough to trust; ``test_interpret_oracle.py``
requires the index to give byte-identical sub-machines and equal call
lists.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from msaconform.automaton import StateMachine, canonicalize, reachable_states
from msaconform.events import parse_symbol
from msaconform.interpret import CallSummary


class NoInvolvedTransitions(Exception):
    """No transition of the machine communicates a→b."""


def transition_frequencies(
    sm: StateMachine, symbol_filter: Callable[[str], bool] | None = None
) -> list[tuple[str, int]]:
    """Total frequency per symbol, descending, ties broken lexicographically."""
    totals: dict[str, int] = {}
    for (_src, sym), (_dst, freq) in sm.transitions.items():
        if symbol_filter is None or symbol_filter(sym):
            totals[sym] = totals.get(sym, 0) + freq
    return sorted(totals.items(), key=lambda item: (-item[1], item[0]))


def _involved_transitions(sm: StateMachine, a: str, b: str) -> list[tuple[int, str, int, int]]:
    out = []
    for (src, sym), (dst, freq) in sm.transitions.items():
        try:
            s, d, _m, _p = parse_symbol(sym)
        except ValueError:
            continue
        if (s, d) == (a, b):
            out.append((src, sym, dst, freq))
    return out


def unexpected_behavior_submachine(sm: StateMachine, a: str, b: str) -> StateMachine:
    """Sub-machine around the transitions whose symbol communicates a→b.

    Keeps the involved transitions plus every transition touching one of
    their endpoint states, re-rooted at the kept state nearest the
    original initial state that still reaches an involved transition.
    States the new root cannot reach within the cut are dropped so the
    result is a valid machine.
    """
    involved = _involved_transitions(sm, a, b)
    if not involved:
        raise NoInvolvedTransitions(a, b)
    core = {src for src, _s, _d, _f in involved} | {dst for _s, _sy, dst, _f in involved}

    kept = {
        (src, sym): (dst, freq)
        for (src, sym), (dst, freq) in sm.transitions.items()
        if src in core or dst in core
    }

    # breadth-first distance from the original initial state
    dist = {sm.initial: 0}
    queue = deque([sm.initial])
    adj: dict[int, list[int]] = {}
    for (src, _sym), (dst, _f) in sm.transitions.items():
        adj.setdefault(src, []).append(dst)
    while queue:
        s = queue.popleft()
        for t in adj.get(s, ()):
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)

    # the root is the state nearest the initial state among those that can
    # still reach an involved transition inside the cut; rooting one hop
    # before the involved states keeps their feeding context visible
    kept_adj: dict[int, list[int]] = {}
    kept_states = set()
    for (src, _sym), (dst, _f) in kept.items():
        kept_adj.setdefault(src, []).append(dst)
        kept_states |= {src, dst}
    involved_sources = {src for src, _s, _d, _f in involved}

    def reaches_involved(start: int) -> bool:
        seen = {start}
        stack = [start]
        while stack:
            s = stack.pop()
            if s in involved_sources:
                return True
            for t in kept_adj.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return False

    candidates = [s for s in kept_states if reaches_involved(s)]
    root = min(candidates, key=lambda s: (dist.get(s, len(sm.states)), s))

    reachable = reachable_states(root, kept)
    transitions = {
        key: val for key, val in kept.items() if key[0] in reachable and val[0] in reachable
    }
    return canonicalize(root, transitions, name=sm.name)


def _top_calls(
    sm: StateMachine, keep: Callable[[str, str], bool], top_n: int
) -> list[CallSummary]:
    """Calls whose (caller, callee) pass ``keep``, by descending count, then by call."""
    grouped: dict[tuple[str, str, str, str], int] = {}
    for sym, freq in transition_frequencies(sm):
        try:
            call = parse_symbol(sym)
        except ValueError:
            continue
        if keep(call[0], call[1]):
            grouped[call] = grouped.get(call, 0) + freq
    ordered = sorted(grouped.items(), key=lambda kv: (-kv[1], kv[0]))
    return [CallSummary(*call, count=c) for call, c in ordered[:top_n]]


def most_frequent_calls(sm: StateMachine, a: str, b: str, top_n: int = 5) -> list[CallSummary]:
    """Top calls a→b, grouped by (method, path template), descending count."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    return _top_calls(sm, lambda src, dst: (src, dst) == (a, b), top_n)


def calls_involving(sm: StateMachine, service: str, top_n: int = 5) -> list[CallSummary]:
    """Top calls where the service is caller or callee (node-level details)."""
    return _top_calls(sm, lambda src, dst: service in (src, dst), top_n)


