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

The prefix tree is kept as flat lists with one entry per state. States
are numbered breadth-first with symbols in sorted order. State ``t`` is
entered from ``src[t]`` on ``sym[t]`` by ``freq[t]`` traces, the number
that pass through it; the root has ``src[0] = -1``, ``sym[0] = ""`` and
``freq[0]`` the number of traces. ``leaf[i]`` is the state where trace
``i`` ends, which is all the tree keeps of terminations. A
cross-validation fold does not build its own tree: ``without`` copies the
counts and walks each held-out trace from its leaf up to the root,
decrementing. A state whose count reaches 0 leaves the fold's tree, and so
does its whole subtree. On the states that remain, the global
breadth-first order is the fold's own. The merge loop builds each state's
row in the order its symbols were first inserted, in one pass over the
leaves that also counts each state's terminations: a trace makes the
states between its leaf and the first state an earlier trace made. Ids
and rows are then those of a tree built from the fold's traces, so the
merge order, and the learned machine, is the same.

Each merge step does work bounded by the states it touches, not by the
size of the automaton. Every non-red state is a node of a prefix subtree
hanging off the red core, so it has exactly one parent edge; the loop
keeps that edge's source per state, and redirecting a merged blue state
rewrites only that edge. The edge's symbol is always the state's own
``sym`` in the tree, since a fold moves a state under its row key and a
redirect only ever points an edge at a red. Each state's total frequency
is cached and grows by the folded state's total. The blue fringe is a
min-heap fed when a state turns red and when a fold moves a subtree under
a red state; stale entries are dropped when popped. The merge order, and
so the learned machine, is the same as rebuilding the fringe from scratch
on every step.

Most reds fail a blue at the root pair, on a symbol the blue lacks: there
that symbol's frequency counts as 0 in the blue, and the test is
``f1 / n1 >= bound``. So when a red is promoted, its heaviest outgoing
symbol is kept as a witness, with its total ``n1`` and the cached terms
``f1 / n1`` and ``1 / sqrt(n1)``. The scan skips a red without calling the
check when the blue lacks the witness and, with the blue's
``1 / sqrt(n2)``, the cached terms fail the bound. That is the same
floating-point expression the check would evaluate for that symbol at the
root pair, where reaching it requires both totals to be at least
``min_freq`` and non-zero, so a skip is one of the check's own failures and
the remaining reds are tried in id order as before. The witness holds only
while the red's total is the one it was taken at: a merge into the red adds
the folded state's total, never 0, and is the only way its row's
frequencies change. A red whose total has changed is simply no longer
skipped.

The check itself does work bounded by the blue side. It walks the blue
state's row at each pair and looks each symbol up in the red's row, which
is usually much longer. The red row's own symbols, tested as
``f1 / n1 >= bound``, are scanned only when ``top[a] / n1 >= bound``, where
``top[a]`` is the heaviest frequency in state ``a``'s row. Float division
is monotone, so ``f1 <= top[a]`` gives ``f1 / n1 <= top[a] / n1`` and a
skipped scan is one that could not fail. ``top`` stays exact because a
fold only adds row entries or grows their frequencies, and raises ``top``
to each one's new value; a redirect keeps the entry's frequency. A pair
whose blue total ``n2`` is at most ``sure``, the largest ``n`` with
``coeff * (1 / sqrt(n)) > 1.0``, is skipped with its whole subtree. Its
bound is at least that term, again by monotone float operations, and no
left-hand side exceeds 1.0, so no test there can fail. Below it, in the
blue subtree, a state's total is its incoming frequency, at most its
parent's total, so no test can fail there either. The result is False
exactly when some pair fails a test, in any visiting order.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass
from typing import Iterable, Sequence

from .automaton import StateMachine, canonicalize
from .errors import InputError, clip
from .events import Trace


@dataclass(frozen=True)
class LearnerConfig:
    alpha: float = 0.05
    min_freq: int = 0

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.min_freq < 0:
            raise ValueError(f"min_freq must be non-negative, got {clip(str(self.min_freq))}")


class PrefixTree:
    """Prefix tree acceptor of a trace list, as flat breadth-first lists with
    one entry per state.

    State ``t`` is entered from ``src[t]`` on ``sym[t]`` by ``freq[t]``
    traces; the root's entry is ``-1``, ``""`` and the number of traces.
    Trace ``i`` ends in ``leaf[i]``. A tree made by :meth:`without` shares
    ``src`` and ``sym`` and keeps the states its traces left behind with
    count 0.
    """

    __slots__ = ("src", "sym", "freq", "leaf")

    def __init__(self, traces: Sequence[Trace | Sequence[str]]):
        if not traces:
            raise InputError("cannot learn from an empty trace set")
        # insertion-numbered trie first: a child dict and an incoming count per node
        children: list[dict[str, int]] = [{}]
        count = [len(traces)]
        leaves = []
        for trace in traces:
            node = 0
            for symbol in trace.symbols if isinstance(trace, Trace) else trace:
                row = children[node]
                nxt = row.get(symbol)
                if nxt is None:
                    nxt = row[symbol] = len(children)
                    children.append({})
                    count.append(0)
                count[nxt] += 1
                node = nxt
            leaves.append(node)
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
        self.leaf = [bfs_id[node] for node in leaves]

    def without(self, held: Iterable[int]) -> PrefixTree:
        """The tree of the traces not indexed by ``held``, in their order."""
        held = set(held)
        if len(held) >= len(self.leaf):
            raise InputError("cannot learn from an empty trace set")
        freq, src = self.freq.copy(), self.src
        for i in held:
            state = self.leaf[i]
            while state >= 0:
                freq[state] -= 1
                state = src[state]
        tree = object.__new__(PrefixTree)
        tree.src, tree.sym, tree.freq = src, self.sym, freq
        tree.leaf = [state for i, state in enumerate(self.leaf) if i not in held]
        return tree


class _RedBlue:
    """Red-blue merge loop over a prefix tree, with incremental bookkeeping.

    ``trans`` maps each live state to its row ``symbol -> (target, freq)``.
    The lists are indexed by the tree's state ids: ``end`` holds each
    state's termination count, and ``total`` caches its outgoing plus
    terminating frequency. Every non-red state ``t`` has one incoming edge,
    from ``parent_src[t]`` on ``sym[t]``, the tree's own symbol: a fold
    moves ``t`` under the same row key, and a redirect only ever points an
    edge at a red. A state is blue when its parent is red, and
    ``parent_src`` is -1 for a red or merged state. ``fringe`` holds every
    blue state, possibly alongside stale ids. ``top`` holds each state's
    heaviest outgoing frequency, 0 for an empty row, and ``sure`` the
    largest blue total at which no test can fail.
    """

    def __init__(self, tree: PrefixTree, cfg: LearnerConfig):
        self.min_freq = cfg.min_freq
        self.coeff = coeff = math.sqrt(0.5 * math.log(2.0 / cfg.alpha))
        # the largest total whose own term coeff / sqrt(n) puts the bound above
        # 1.0; every total does when alpha is so small that coeff is infinite
        if math.isinf(coeff):
            self.sure = math.inf
        else:
            self.sure = 0
            while coeff * (1.0 / math.sqrt(self.sure + 1)) > 1.0:
                self.sure += 1
        src, freq = tree.src, tree.freq
        self.sym = sym = tree.sym
        # each row in insertion order: the order _merge walks a row in decides
        # which states a fold keeps, and so the ids that order later merges.
        # A state is made once it has a row.
        self.end = end = [0] * len(src)
        self.top = top = [0] * len(src)
        self.trans = trans = {0: {}}
        for state in tree.leaf:
            end[state] += 1
            path = []  # the states this trace makes, deepest first
            while state not in trans:
                path.append(state)
                state = src[state]
            for t in reversed(path):
                s, f = src[t], freq[t]
                trans[s][sym[t]] = (t, f)
                if f > top[s]:
                    top[s] = f
                trans[t] = {}
        self.parent_src = src.copy()
        # in a prefix tree a state's total is the count of its incoming edge
        self.total = freq.copy()
        self.red: set[int] = set()
        self.red_order: list[int] = []  # ascending: merge candidates in id order
        # red -> (n1, symbol, f / n1, 1 / sqrt(n1)) at its promotion, for the
        # red-scan filter of the module docstring
        self.witness: dict[int, tuple[int, str, float, float]] = {}
        self.fringe: list[int] = []
        self._promote(0)

    def _promote(self, state: int) -> None:
        self.red.add(state)
        insort(self.red_order, state)
        self.parent_src[state] = -1
        row = self.trans[state]
        n1 = self.total[state]
        # _compatible passes over a root pair below min_freq, so such a red
        # has no witness. Only the root can be one: every other red has
        # total >= min_freq, since a blue below min_freq is compatible with
        # red 0 and so is never promoted.
        if row and n1 >= self.min_freq:
            symbol, (_t, f) = max(row.items(), key=lambda item: item[1][1])
            self.witness[state] = (n1, symbol, f / n1, 1.0 / math.sqrt(n1))
        for t, _f in row.values():
            heapq.heappush(self.fringe, t)

    def _next_blue(self) -> int | None:
        """Pop the lowest-id blue state, skipping merged, red or moved ids."""
        while self.fringe:
            q = heapq.heappop(self.fringe)
            if self.parent_src[q] in self.red:
                return q
        return None

    def _compatible(self, red: int, blue: int) -> bool:
        """Whether every pair the merge would fold together passes the test.

        The blue side is a tree and the red side trails it by at least one
        level, so no pair repeats and no pair is a state with itself. A pair
        with ``n2 <= sure`` cannot fail, and neither can any below it: the
        totals in the blue subtree only shrink going down.
        """
        trans, end, total, top = self.trans, self.end, self.total, self.top
        min_freq, coeff, sure = self.min_freq, self.coeff, self.sure
        stack = [(red, blue)]
        while stack:
            a, b = stack.pop()
            n1, n2 = total[a], total[b]
            if n1 < min_freq or n2 < min_freq or n1 == 0 or n2 <= sure:
                continue
            bound = coeff * (1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2))
            if abs(end[a] / n1 - end[b] / n2) >= bound:
                return False
            # a symbol missing from one row has frequency 0 there
            row_a, row_b = trans[a], trans[b]
            for sym, (tb, f2) in row_b.items():
                ta_f1 = row_a.get(sym)
                if ta_f1 is None:
                    if f2 / n2 >= bound:
                        return False
                else:
                    if abs(ta_f1[1] / n1 - f2 / n2) >= bound:
                        return False
                    stack.append((ta_f1[0], tb))
            # no symbol of row_a reaches the bound if its heaviest does not
            if top[a] / n1 >= bound:
                for sym, (_ta, f1) in row_a.items():
                    if f1 / n1 >= bound and sym not in row_b:
                        return False
        return True

    def _merge(self, red: int, blue: int) -> None:
        """Redirect blue's parent edge to red, then fold blue's subtree in."""
        trans, end, total, top = self.trans, self.end, self.total, self.top
        parent_src = self.parent_src
        src, sym = parent_src[blue], self.sym[blue]
        parent_src[blue] = -1
        trans[src][sym] = (red, trans[src][sym][1])
        stack = [(red, blue)]
        while stack:
            a, b = stack.pop()
            end[a] += end[b]
            total[a] += total[b]
            parent_src[b] = -1
            row_a = trans[a]
            a_red = a in self.red
            for sym, (t, f) in trans.pop(b, {}).items():
                if sym in row_a:
                    t2, f2 = row_a[sym]
                    f += f2
                    row_a[sym] = (t2, f)
                    if t2 != t:
                        stack.append((t2, t))
                else:
                    row_a[sym] = (t, f)
                    parent_src[t] = a
                    if a_red:
                        heapq.heappush(self.fringe, t)
                if f > top[a]:
                    top[a] = f

    def run(self) -> _RedBlue:
        trans, total, witness = self.trans, self.total, self.witness
        coeff, min_freq = self.coeff, self.min_freq
        while (q := self._next_blue()) is not None:
            n2 = total[q]
            row_q = trans[q]
            inv_b = 1.0 / math.sqrt(n2) if n2 > 0 and n2 >= min_freq else None
            for r in self.red_order:
                w = witness.get(r)
                # skip r if its witness (n1, symbol, f / n1, 1 / sqrt(n1)) is
                # current and fails _compatible's root-pair test against q
                if (w is not None and inv_b is not None and total[r] == w[0]
                        and w[1] not in row_q and w[2] >= coeff * (w[3] + inv_b)):
                    continue
                if self._compatible(r, q):
                    self._merge(r, q)
                    break
            else:
                self._promote(q)
        return self

    def to_state_machine(self, name: str | None = None) -> StateMachine:
        transitions = {
            (s, sym): (t, f)
            for s, row in self.trans.items()
            for sym, (t, f) in row.items()
        }
        return canonicalize(0, transitions, name=name)


def build_pta(traces: Sequence[Trace | Sequence[str]], name: str | None = None) -> StateMachine:
    """Prefix tree acceptor: one state per distinct trace prefix."""
    return _RedBlue(PrefixTree(traces), LearnerConfig()).to_state_machine(name=name)


def learn(
    traces: Sequence[Trace | Sequence[str]],
    cfg: LearnerConfig = LearnerConfig(),
    name: str | None = None,
    *,
    pta: PrefixTree | None = None,
) -> StateMachine:
    """Learn a deterministic machine from traces by red-blue state merging.

    ``pta``, if given, must be the prefix tree of ``traces``, such as a
    cross-validation fold's ``PrefixTree.without``; it is not built again.
    """
    if pta is None:
        pta = PrefixTree(traces)
    return _RedBlue(pta, cfg).run().to_state_machine(name=name)
