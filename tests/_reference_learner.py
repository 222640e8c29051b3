"""Reference red-blue learner: the original merge loop, kept verbatim as
a test oracle for the bounded-work loop in ``msaconform.learner``.

It rebuilds the blue fringe from every red state on each step, re-sums a
state's row for every total, and scans the whole automaton to redirect
the one edge into a merged blue state. It is slow on large prefix trees
but simple enough to trust; ``test_learner_oracle.py`` requires the new
learner to produce byte-identical machines.

Two former builds of the bounded-work learner are kept too, verbatim, as
oracles for the builds that replaced them: ``TriePrefixTree`` builds the
flat prefix tree through an insertion-numbered trie renumbered
breadth-first, and ``eager_rows`` builds every row of a tree at once, with
each state's termination count and heaviest entry.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import Iterable, Sequence

from msaconform.automaton import StateMachine, canonicalize
from msaconform.errors import InputError as EmptyTraceSet
from msaconform.events import Trace
from msaconform.learner import LearnerConfig, PrefixTree


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

    def total(self, state: int) -> int:
        return sum(f for _t, f in self.trans[state].values()) + self.end[state]

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
        return canonicalize(0, transitions, name=name)


def _build_pta(traces: Sequence[Trace | Sequence[str]]) -> _Fsm:
    if not traces:
        raise EmptyTraceSet("cannot learn from an empty trace set")
    fsm = _Fsm()
    for trace in traces:
        fsm.insert(_symbols_of(trace))
    fsm.renumber_bfs()
    return fsm


def _compatible(fsm: _Fsm, red: int, blue: int, cfg: LearnerConfig) -> bool:
    coeff = math.sqrt(0.5 * math.log(2.0 / cfg.alpha))
    seen: set[tuple[int, int]] = set()
    stack = [(red, blue)]
    while stack:
        a, b = stack.pop()
        if (a, b) in seen or a == b:
            continue
        seen.add((a, b))
        n1, n2 = fsm.total(a), fsm.total(b)
        if n1 < cfg.min_freq or n2 < cfg.min_freq:
            continue
        if n1 == 0 or n2 == 0:
            continue
        bound = coeff * (1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2))
        row_a, row_b = fsm.trans[a], fsm.trans[b]
        for sym in set(row_a) | set(row_b):
            f1 = row_a.get(sym, (0, 0))[1]
            f2 = row_b.get(sym, (0, 0))[1]
            if abs(f1 / n1 - f2 / n2) >= bound:
                return False
        if abs(fsm.end[a] / n1 - fsm.end[b] / n2) >= bound:
            return False
        for sym in set(row_a) & set(row_b):
            stack.append((row_a[sym][0], row_b[sym][0]))
    return True


def _merge(fsm: _Fsm, red: int, blue: int) -> None:
    # Redirect every transition pointing at blue, then fold blue's subtree.
    for row in fsm.trans.values():
        for sym, (t, f) in list(row.items()):
            if t == blue:
                row[sym] = (red, f)
    stack = [(red, blue)]
    while stack:
        a, b = stack.pop()
        fsm.end[a] += fsm.end.pop(b, 0)
        for sym, (t, f) in fsm.trans.pop(b, {}).items():
            if sym in fsm.trans[a]:
                t2, f2 = fsm.trans[a][sym]
                fsm.trans[a][sym] = (t2, f2 + f)
                if t2 != t:
                    stack.append((t2, t))
            else:
                fsm.trans[a][sym] = (t, f)


def learn(
    traces: Sequence[Trace | Sequence[str]],
    cfg: LearnerConfig = LearnerConfig(),
    name: str | None = None,
) -> StateMachine:
    """Learn a deterministic machine from traces by red-blue state merging."""
    fsm = _build_pta(traces)
    red: list[int] = [0]
    while True:
        blue = sorted(
            {t for r in red for t, _f in fsm.trans[r].values() if t not in red}
        )
        if not blue:
            break
        q = blue[0]
        for r in red:
            if _compatible(fsm, r, q, cfg):
                _merge(fsm, r, q)
                break
        else:
            red.append(q)
            red.sort()
    return fsm.to_state_machine(name=name)


class TriePrefixTree(PrefixTree):
    """``PrefixTree`` as it was built before the level-by-level build: an
    insertion-numbered trie of every distinct trace object, then numbered
    breadth-first with symbols sorted. ``without`` is the package's own."""

    def __init__(self, traces: Sequence[Trace | Sequence[str]]):
        if not traces:
            raise EmptyTraceSet("cannot learn from an empty trace set")
        # each distinct trace object, in first-seen order: [the trace, how many times it occurs]
        distinct: dict[int, list] = {}
        for trace in traces:
            distinct.setdefault(id(trace), [trace, 0])[1] += 1
        # insertion-numbered trie first: a child dict and an incoming count per node
        children: list[dict[str, int]] = [{}]
        count = [len(traces)]
        ends: dict[int, int] = {}  # each distinct trace object's node
        for key, (trace, times) in distinct.items():
            node = 0
            for symbol in trace.symbols if isinstance(trace, Trace) else trace:
                row = children[node]
                nxt = row.get(symbol)
                if nxt is None:
                    nxt = row[symbol] = len(children)
                    children.append({})
                    count.append(0)
                count[nxt] += times
                node = nxt
            ends[key] = node
        # then breadth-first, symbols sorted
        bfs_id = [0] * len(children)
        order = [0]
        self.src: list[int] = [-1]
        self.sym: list[str] = [""]
        self.freq: list[int] = [count[0]]
        for state, node in enumerate(order):  # order grows as the loop runs
            row = children[node]
            for symbol in sorted(row):
                child = row[symbol]
                bfs_id[child] = len(order)
                order.append(child)
                self.src.append(state)
                self.sym.append(symbol)
                self.freq.append(count[child])
        self.leaf = [bfs_id[ends[id(trace)]] for trace in traces]


def eager_rows(tree: PrefixTree):
    """Every row of ``tree`` at once, as the merge loop built them before it
    built each row on first read: ``(trans, end, top, heavy)``, with
    ``trans`` in the order the states were made and each row in the order
    its symbols were inserted."""
    src, freq = tree.src, tree.freq
    sym = tree.sym
    end = [0] * len(src)
    top = [0] * len(src)
    heavy = [""] * len(src)
    trans = {0: {}}
    # a leaf met again only adds to its count: Counter keeps first-seen order
    for state, times in Counter(tree.leaf).items():
        end[state] += times
        path = []  # the states this trace makes, deepest first
        while state not in trans:
            path.append(state)
            state = src[state]
        for t in reversed(path):
            s, f = src[t], freq[t]
            trans[s][sym[t]] = (t, f)
            if f > top[s]:
                top[s], heavy[s] = f, sym[t]
            trans[t] = {}
    return trans, end, top, heavy
