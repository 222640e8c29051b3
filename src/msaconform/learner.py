"""Passive state-machine learning: prefix tree construction and
frequency-based red-blue state merging.

Two states are considered mergeable when, for every outgoing symbol (and
for trace termination, tracked as a virtual end event), the difference of
their relative frequencies stays below the Hoeffding bound

    sqrt(0.5 * ln(2 / alpha)) * (1 / sqrt(n1) + 1 / sqrt(n2))

where n is a state's total frequency (outgoing plus terminations). The
check is applied recursively to the successors the merge would fold
together. Termination counts are included so that states where many
traces end are distinguishable from pass-through states; without them
every leaf would be vacuously mergeable with everything.

Merging is deterministic: blue states are considered in breadth-first id
order and fold into the lowest-id compatible red state.

Each merge step does work bounded by the states it touches, not by the
size of the automaton. Every non-red state is a node of a prefix subtree
hanging off the red core, so it has exactly one parent edge; the loop
keeps that edge per state, and redirecting a merged blue state rewrites
only it. Each state's total frequency is cached and grows by the folded
state's total. The blue fringe is a min-heap fed when a state turns red
and when a fold moves a subtree under a red state; stale entries are
dropped when popped. The merge order, and so the learned machine, is the
same as rebuilding the fringe from scratch on every step.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .automaton import StateMachine, canonicalize
from .errors import EmptyTraceSet
from .events import Trace


@dataclass(frozen=True)
class LearnerConfig:
    alpha: float = 0.05
    min_freq: int = 0

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.min_freq < 0:
            raise ValueError(f"min_freq must be non-negative, got {self.min_freq}")


def _symbols_of(trace: Trace | Sequence[str]) -> tuple[str, ...]:
    if isinstance(trace, Trace):
        return trace.symbols
    return tuple(trace)


class _Fsm:
    """Mutable working automaton: transition dicts plus termination counts."""

    def __init__(self):
        # state -> symbol -> (target, freq)
        self.trans: dict[int, dict[str, tuple[int, int]]] = {0: {}}
        self.end: dict[int, int] = {0: 0}
        self._next_id = 1

    def add_state(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self.trans[sid] = {}
        self.end[sid] = 0
        return sid

    def insert(self, symbols: Iterable[str]) -> None:
        state = 0
        for sym in symbols:
            nxt = self.trans[state].get(sym)
            if nxt is None:
                target = self.add_state()
                self.trans[state][sym] = (target, 1)
            else:
                target, freq = nxt
                self.trans[state][sym] = (target, freq + 1)
            state = target
        self.end[state] += 1

    def renumber_bfs(self) -> None:
        order: dict[int, int] = {0: 0}
        queue = deque([0])
        while queue:
            s = queue.popleft()
            for sym in sorted(self.trans[s]):
                t, _f = self.trans[s][sym]
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
        self.trans = {
            order[s]: {sym: (order[t], f) for sym, (t, f) in row.items()}
            for s, row in self.trans.items()
            if s in order
        }
        self.end = {order[s]: e for s, e in self.end.items() if s in order}
        self._next_id = len(order)

    def to_state_machine(self, name: str | None = None) -> StateMachine:
        transitions = {
            (s, sym): (t, f)
            for s, row in self.trans.items()
            for sym, (t, f) in row.items()
        }
        states = frozenset(self.trans)
        return canonicalize(StateMachine(states, 0, transitions, name=name))


def _build_pta(traces: Sequence[Trace | Sequence[str]]) -> _Fsm:
    if not traces:
        raise EmptyTraceSet("cannot learn from an empty trace set")
    fsm = _Fsm()
    for trace in traces:
        fsm.insert(_symbols_of(trace))
    fsm.renumber_bfs()
    return fsm


def build_pta(traces: Sequence[Trace | Sequence[str]], name: str | None = None) -> StateMachine:
    """Prefix tree acceptor: one state per distinct trace prefix."""
    return _build_pta(traces).to_state_machine(name=name)


class _RedBlue:
    """Red-blue merge loop over a prefix tree, with incremental bookkeeping.

    ``parent`` maps every non-red state to its one incoming edge
    ``(state, symbol)``; a state is blue when that parent is red.
    ``total`` caches each state's outgoing plus terminating frequency.
    ``fringe`` holds every blue state, possibly alongside stale ids.
    """

    def __init__(self, fsm: _Fsm, cfg: LearnerConfig):
        self.fsm = fsm
        self.min_freq = cfg.min_freq
        self.coeff = math.sqrt(0.5 * math.log(2.0 / cfg.alpha))
        self.total = {
            s: sum(f for _t, f in row.values()) + fsm.end[s] for s, row in fsm.trans.items()
        }
        self.parent = {
            t: (s, sym) for s, row in fsm.trans.items() for sym, (t, _f) in row.items()
        }
        self.red: set[int] = set()
        self.red_order: list[int] = []  # ascending: merge candidates in id order
        self.fringe: list[int] = []
        self._promote(0)

    def _promote(self, state: int) -> None:
        self.red.add(state)
        insort(self.red_order, state)
        self.parent.pop(state, None)
        for t, _f in self.fsm.trans[state].values():
            heapq.heappush(self.fringe, t)

    def _next_blue(self) -> int | None:
        """Pop the lowest-id blue state, skipping merged, red or moved ids."""
        while self.fringe:
            q = heapq.heappop(self.fringe)
            edge = self.parent.get(q)
            if edge is not None and edge[0] in self.red:
                return q
        return None

    def _compatible(self, red: int, blue: int) -> bool:
        trans, end, total = self.fsm.trans, self.fsm.end, self.total
        min_freq, coeff = self.min_freq, self.coeff
        seen: set[tuple[int, int]] = set()
        stack = [(red, blue)]
        while stack:
            pair = stack.pop()
            a, b = pair
            if a == b or pair in seen:
                continue
            seen.add(pair)
            n1, n2 = total[a], total[b]
            if n1 < min_freq or n2 < min_freq or n1 == 0 or n2 == 0:
                continue
            bound = coeff * (1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2))
            if abs(end[a] / n1 - end[b] / n2) >= bound:
                return False
            # a symbol missing from one row has frequency 0 there
            row_a, row_b = trans[a], trans[b]
            for sym, (ta, f1) in row_a.items():
                tb_f2 = row_b.get(sym)
                if tb_f2 is None:
                    if f1 / n1 >= bound:
                        return False
                else:
                    if abs(f1 / n1 - tb_f2[1] / n2) >= bound:
                        return False
                    stack.append((ta, tb_f2[0]))
            for sym, (_tb, f2) in row_b.items():
                if sym not in row_a and f2 / n2 >= bound:
                    return False
        return True

    def _merge(self, red: int, blue: int) -> None:
        """Redirect blue's parent edge to red, then fold blue's subtree in."""
        trans, end, total, parent = self.fsm.trans, self.fsm.end, self.total, self.parent
        src, sym = parent.pop(blue)
        trans[src][sym] = (red, trans[src][sym][1])
        stack = [(red, blue)]
        while stack:
            a, b = stack.pop()
            end[a] += end.pop(b, 0)
            total[a] += total.pop(b, 0)
            parent.pop(b, None)
            row_a = trans[a]
            a_red = a in self.red
            for sym, (t, f) in trans.pop(b, {}).items():
                if sym in row_a:
                    t2, f2 = row_a[sym]
                    row_a[sym] = (t2, f2 + f)
                    if t2 != t:
                        stack.append((t2, t))
                else:
                    row_a[sym] = (t, f)
                    parent[t] = (a, sym)
                    if a_red:
                        heapq.heappush(self.fringe, t)

    def run(self) -> _Fsm:
        while (q := self._next_blue()) is not None:
            for r in self.red_order:
                if self._compatible(r, q):
                    self._merge(r, q)
                    break
            else:
                self._promote(q)
        return self.fsm


def learn(
    traces: Sequence[Trace | Sequence[str]],
    cfg: LearnerConfig = LearnerConfig(),
    name: str | None = None,
) -> StateMachine:
    """Learn a deterministic machine from traces by red-blue state merging."""
    return _RedBlue(_build_pta(traces), cfg).run().to_state_machine(name=name)
