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
are numbered breadth-first with symbols in sorted order, and the tree is
built in that order, one level at a time: each state of a level keeps the
distinct traces through it, split by their next symbol to number its
children, so no trie is built and renumbered. State ``t`` is
entered from ``src[t]`` on ``sym[t]`` by ``freq[t]`` traces, the number
that pass through it; the root has ``src[0] = -1``, ``sym[0] = ""`` and
``freq[0]`` the number of traces. ``leaf[i]`` is the state where trace
``i`` ends, which is all the tree keeps of terminations. A
cross-validation fold does not build its own tree: ``without`` copies the
counts and walks each held-out trace from its leaf up to the root,
decrementing. A state whose count reaches 0 leaves the fold's tree, and so
does its whole subtree. On the states that remain, the global
breadth-first order is the fold's own. The merge loop orders each
state's row by when its symbols were first inserted, in one pass over the
leaves that also counts each state's terminations: a trace makes the
states between its leaf and the first state an earlier trace made, and
links each into its parent's chain of children. Ids and rows are then
those of a tree built from the fold's traces, so the merge order, and the
learned machine, is the same.

A row is a dict built from its state's chain the first time the loop reads
it. A row is only changed after it is built, so a row not yet built is
still the tree's, and a fold that takes in a state whose row was never
read walks its chain instead: most states of a tree are folded away, deep
under a blue whose total is too small to fail a test, without a dict of
their own.

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

The check itself does work bounded by the blue side. It walks the blue
state's row at each pair and looks each symbol up in the red's row, which
is usually much longer. The red row's own symbols, tested as
``f1 / n1 >= bound``, are scanned only when ``top[a] / n1 >= bound``, where
``top[a]`` is the heaviest frequency in state ``a``'s row and ``heavy[a]``
a symbol that holds it. Float division is monotone, so ``f1 <= top[a]``
gives ``f1 / n1 <= top[a] / n1`` and a skipped scan is one that could not
fail. Both stay exact because a fold only adds row entries or grows their
frequencies, and raises ``top`` to each one's new value with ``heavy`` set
to its symbol; a redirect keeps the entry's frequency. A pair whose blue
total ``n2`` is at most ``sure``, the largest ``n`` with
``coeff * (1 / sqrt(n)) > 1.0``, is skipped with its whole subtree. Its
bound is at least that term, again by monotone float operations, and no
left-hand side exceeds 1.0, so no test there can fail. Below it, in the
blue subtree, a state's total is its incoming frequency, at most its
parent's total, so no test can fail there either. The result is False
exactly when some pair fails a test, in any visiting order.

Every state that a row or chain links is entered by at least one trace
of the tree, and a total only grows, so no total the loop reads is 0.
Most reds fail a blue at the root pair, on a symbol the blue lacks. So
the scan skips red ``r`` for blue ``q``, without calling the check, when
both totals are at least ``min_freq``, ``q`` lacks ``heavy[r]`` and
``top[r] / n1 >= bound``, the check's own floating-point expression. The
check fails that root pair, on ``heavy[r]`` if on nothing before it; it
does not pass it over as ``n2 <= sure``, where the bound exceeds 1.0. So
a skip is one of the check's own failures, and the remaining reds are
tried in id order as before.

Visiting every red for every blue would still make the scan quadratic in
the reds, so an index gives the reds the skip may not cover. At
promotion, a red with a non-empty row and a total ``n1 >= min_freq`` goes
into the bucket of its ``heavy`` symbol and, at its threshold
``top[r] / n1 / coeff - 1 / sqrt(n1)``, into one ascending list. Any other
red goes into that list at ``-inf``, and so does a red that a merge
changes, for good, since its ``heavy``, ``top`` and total are then no
longer those it was indexed by. Divided by ``coeff``, the skip test reads
``inv_b <= threshold``, where ``inv_b`` is ``1 / sqrt(n2)``. Both sides are
at most 2: ``1 / sqrt(n)`` is at most 1, and ``coeff`` is at least
``sqrt(0.5 * ln 2)``, about 0.59, so ``top[r] / n1 / coeff`` is at most 1.7.
Each expression rounds a few times with a relative error of 2**-53, so the
two tests can disagree only within about 1e-15 of the threshold, far
inside ``_MARGIN`` (1e-9). The reds tried for blue ``q`` are therefore the
buckets of the symbols in ``q``'s row and the reds whose threshold is below
``inv_b + _MARGIN``, which the ``-inf`` ones always are: every red outside
them is one the skip test skips. They are visited in ascending id order
and each is re-tested with the exact expression, so the check is called
on the very reds, in the very order, of a scan over every red. A blue that
skips nothing (``n2`` below ``min_freq``) visits every red, and so does a
blue for which the threshold prefix holds half of the reds or more, where
the index would save little.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left, bisect_right, insort
from collections import Counter, namedtuple
from typing import Iterable, Sequence

from .automaton import StateMachine, canonicalize
from .errors import InputError, clip
from .events import Trace


class LearnerConfig(namedtuple("LearnerConfig", ("alpha", "min_freq"), defaults=(0.05, 0))):
    """The learner's settings, checked when made: a bad value is a ValueError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0 < self.alpha <= 1) or math.isinf(2.0 / self.alpha):
            raise ValueError(f"alpha must be in (0, 1] with 2 / alpha finite, got {self.alpha}")
        if self.min_freq < 0:
            raise ValueError(f"min_freq must be non-negative, got {clip(str(self.min_freq))}")
        return self


# how far an indexed red's threshold is widened: far above the rounding
# error of the threshold and of the skip test (module docstring)
_MARGIN = 1e-9


class PrefixTree:
    """Prefix tree acceptor of a trace list, as flat breadth-first lists with
    one entry per state.

    State ``t`` is entered from ``src[t]`` on ``sym[t]`` by ``freq[t]``
    traces; the root's entry is ``-1``, ``""`` and the number of traces.
    Trace ``i`` ends in ``leaf[i]``. It is built one breadth-first level at
    a time from the distinct traces through each state of the level, split
    by their next symbol. A trace object that occurs more than once, as
    equal sessions do (``extract_traces`` makes them one), is walked once,
    keyed by its ``id``, and adds its count to each state's. A tree made
    by :meth:`without` shares ``src`` and ``sym`` and keeps the states its
    traces left behind with count 0.
    """

    __slots__ = ("src", "sym", "freq", "leaf")

    def __init__(self, traces: Sequence[Trace | Sequence[str]]):
        if not traces:
            raise InputError("cannot learn from an empty trace set")
        # each distinct trace object by its id, and how many times it occurs,
        # both in first-seen order
        objects = dict(zip(map(id, traces), traces))
        times = list(Counter(map(id, traces)).values())
        seqs = [trace.symbols if isinstance(trace, Trace) else trace
                for trace in objects.values()]
        ends = [0] * len(seqs)  # each distinct trace's state
        self.src: list[int] = [-1]
        self.sym: list[str] = [""]
        self.freq: list[int] = [len(traces)]
        src, sym, freq = self.src, self.sym, self.freq
        # one level at a time: the distinct traces through each of its states
        level: list[list[int]] = [list(range(len(seqs)))]
        state, depth = 0, 0
        while level:
            below: list[list[int]] = []
            for through in level:
                split: dict[str, list[int]] = {}
                for k in through:
                    if depth < len(seqs[k]):
                        split.setdefault(seqs[k][depth], []).append(k)
                    else:
                        ends[k] = state
                for symbol in sorted(split):
                    child = split[symbol]
                    src.append(state)
                    sym.append(symbol)
                    freq.append(sum(times[k] for k in child))
                    below.append(child)
                state += 1
            level, depth = below, depth + 1
        end_of = dict(zip(objects, ends))
        self.leaf = [end_of[id(trace)] for trace in traces]

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

    A state is made once the pass over the leaves links it into its
    parent's chain of children: ``head`` holds each state's first child and
    ``after`` each child's next sibling, in the order they were made, and
    ``made`` each state's rank in that order; -1 marks no child, no next
    sibling, and a state the tree keeps with count 0. These three are
    ``array('i')`` columns of 4 bytes a state; the lists that the merge
    check and fold read at every pair stay lists, whose items read faster.
    ``trans`` maps each live state whose row was read to that row,
    ``symbol -> (target, freq)``, built by :meth:`row` from the chain and
    the tree's counts on first read; a merged state leaves it. The
    lists are indexed by the tree's state ids: ``end`` holds each
    state's termination count, and ``total`` caches its outgoing plus
    terminating frequency. Every non-red state ``t`` has one incoming edge,
    from ``parent_src[t]`` on ``sym[t]``, the tree's own symbol: a fold
    moves ``t`` under the same row key, and a redirect only ever points an
    edge at a red. A state is blue when its parent is red, and
    ``parent_src`` is -1 for a red or merged state. ``fringe`` holds every
    blue state, possibly alongside stale ids. ``top`` holds the heaviest
    frequency of each built row, 0 for an empty one, and ``heavy`` a
    symbol that holds it, ``""`` for an empty row: one exact entry per
    built row that serves both the red scan in :meth:`run` and, through
    ``top``, the red-row guard in :meth:`_compatible`. Every red's row is
    built. ``thresholds`` holds every red's threshold, ascending, ``-inf``
    for a red that is not ``indexed``, beside its red in ``by_threshold``;
    ``buckets`` holds the indexed reds of each ``heavy`` symbol. ``sure``
    is the largest blue total at which no test can fail.
    """

    def __init__(self, tree: PrefixTree, cfg: LearnerConfig):
        self.min_freq = cfg.min_freq
        self.coeff = coeff = math.sqrt(0.5 * math.log(2.0 / cfg.alpha))
        # the largest total whose own term coeff / sqrt(n) puts the bound above 1.0
        self.sure = 0
        while coeff * (1.0 / math.sqrt(self.sure + 1)) > 1.0:
            self.sure += 1
        src, freq = tree.src, tree.freq
        self.sym, self.freq = tree.sym, freq
        # each row in insertion order, as a chain of children until it is
        # read: the order _merge walks a row in decides which states a fold
        # keeps, and so the ids that order later merges
        n = len(src)
        self.end = end = [0] * n
        self.top = [0] * n
        self.heavy = [""] * n
        self.head = head = array("i", [-1]) * n  # each made state's first child
        self.after = after = array("i", [-1]) * n  # each child's next sibling in made order
        self.made = made = array("i", [-1]) * n
        last = array("i", [-1]) * n  # the last child linked so far
        made[0] = rank = 0
        # a leaf met again only adds to its count: Counter keeps first-seen order
        for state, times in Counter(tree.leaf).items():
            end[state] += times
            path = []  # the states this trace makes, deepest first
            while made[state] < 0:
                path.append(state)
                state = src[state]
            for t in reversed(path):
                s = src[t]
                if last[s] < 0:
                    head[s] = t
                else:
                    after[last[s]] = t
                last[s] = t
                rank += 1
                made[t] = rank
        self.trans: dict[int, dict[str, tuple[int, int]]] = {}
        self.parent_src = src.copy()
        # in a prefix tree a state's total is the count of its incoming edge
        self.total = freq.copy()
        self.red: set[int] = set()
        self.red_order: list[int] = []  # ascending: merge candidates in id order
        # the red index (module docstring): each indexed red's threshold, the
        # thresholds ascending beside their reds, with -inf for every red
        # tried for every blue, and the indexed reds of each heaviest symbol
        self.indexed: dict[int, float] = {}
        self.thresholds: list[float] = []
        self.by_threshold: list[int] = []
        self.buckets: dict[str, list[int]] = {}
        self.fringe: list[int] = []
        self._promote(0)

    def row(self, state: int) -> dict[str, tuple[int, int]]:
        """The row of a made state, built from its child chain on first read."""
        row = self.trans.get(state)
        if row is None:
            row = self.trans[state] = {}
            sym, freq, after = self.sym, self.freq, self.after
            top, heavy = 0, ""
            t = self.head[state]
            while t >= 0:
                f = freq[t]
                row[sym[t]] = (t, f)
                if f > top:
                    top, heavy = f, sym[t]
                t = after[t]
            self.top[state], self.heavy[state] = top, heavy
        return row

    def _chain(self, state: int):
        """The items of a made state's row, from the tree, without building
        it: for a state whose row was never read, and so never changed."""
        sym, freq, after = self.sym, self.freq, self.after
        t = self.head[state]
        while t >= 0:
            yield sym[t], (t, freq[t])
            t = after[t]

    def _promote(self, state: int) -> None:
        self.red.add(state)
        insort(self.red_order, state)
        self.parent_src[state] = -1
        for t, _f in self.row(state).values():
            heapq.heappush(self.fringe, t)
        n1, f = self.total[state], self.top[state]
        # a red the skip test cannot index, with an empty row or a total below
        # min_freq, sits at -inf: it is tried for every blue
        threshold = -math.inf
        if f and n1 >= self.min_freq:  # a non-empty row, so n1 >= f > 0
            threshold = f / n1 / self.coeff - 1.0 / math.sqrt(n1)
            self.buckets.setdefault(self.heavy[state], []).append(state)
            self.indexed[state] = threshold
        i = bisect_right(self.thresholds, threshold)
        self.thresholds.insert(i, threshold)
        self.by_threshold.insert(i, state)

    def _unindex(self, red: int) -> None:
        """Move an indexed red, about to change, to -inf, with the reds tried
        for every blue. Its ``heavy`` is still the one it was indexed under."""
        i = bisect_left(self.thresholds, self.indexed.pop(red))
        while self.by_threshold[i] != red:  # past equal thresholds of other reds
            i += 1
        del self.thresholds[i], self.by_threshold[i]
        self.thresholds.insert(0, -math.inf)
        self.by_threshold.insert(0, red)
        self.buckets[self.heavy[red]].remove(red)

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
        trans, end, total, top, row = self.trans, self.end, self.total, self.top, self.row
        min_freq, coeff, sure = self.min_freq, self.coeff, self.sure
        stack = [(red, blue)]
        while stack:
            a, b = stack.pop()
            n1, n2 = total[a], total[b]
            if n1 < min_freq or n2 < min_freq or n2 <= sure:
                continue
            bound = coeff * (1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2))
            if abs(end[a] / n1 - end[b] / n2) >= bound:
                return False
            # a symbol missing from one row has frequency 0 there
            row_a, row_b = trans.get(a) or row(a), trans.get(b) or row(b)
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
        parent_src, heavy, reds, indexed = self.parent_src, self.heavy, self.red, self.indexed
        src, sym = parent_src[blue], self.sym[blue]
        parent_src[blue] = -1
        trans[src][sym] = (red, trans[src][sym][1])
        stack = [(red, blue)]
        while stack:
            a, b = stack.pop()
            end[a] += end[b]
            total[a] += total[b]
            parent_src[b] = -1
            row_a = trans.get(a) or self.row(a)
            a_red = a in reds
            if a_red and a in indexed:
                self._unindex(a)
            row_b = trans.pop(b, None)
            for sym, (t, f) in self._chain(b) if row_b is None else row_b.items():
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
                    top[a], heavy[a] = f, sym

    def _reds_to_try(self, row_q: dict, inv_b: float) -> list[int]:
        """The reds, ascending, that the skip test in :meth:`run` may not skip
        for a blue with row ``row_q`` and ``1 / sqrt(n2)`` ``inv_b``: a
        superset, by the module docstring's index. ``red_order`` itself when
        the index would leave half of the reds or more."""
        k = bisect_right(self.thresholds, inv_b + _MARGIN)
        if 2 * k >= len(self.red_order):
            return self.red_order
        reds = self.by_threshold[:k]
        buckets = self.buckets
        for symbol in row_q:
            if symbol in buckets:
                reds += buckets[symbol]
        return sorted(set(reds))

    def run(self) -> _RedBlue:
        total, top, heavy = self.total, self.top, self.heavy
        coeff, min_freq, sqrt = self.coeff, self.min_freq, math.sqrt
        while (q := self._next_blue()) is not None:
            n2 = total[q]
            row_q = self.row(q)
            if n2 >= min_freq:
                inv_b = 1.0 / sqrt(n2)
                reds = self._reds_to_try(row_q, inv_b)
            else:  # no red is skipped
                inv_b, reds = None, self.red_order
            for r in reds:
                n1 = total[r]
                # skip r if _compatible's root pair fails on r's heaviest
                # symbol, which q lacks (module docstring)
                if (inv_b is not None and n1 >= min_freq and heavy[r] not in row_q
                        and top[r] / n1 >= coeff * (1.0 / sqrt(n1) + inv_b)):
                    continue
                if self._compatible(r, q):
                    self._merge(r, q)
                    break
            else:
                self._promote(q)
        return self

    def to_state_machine(self, name: str | None = None) -> StateMachine:
        # rows in the order their states were made, so that the transitions
        # keep the order of a run that built every row at once
        transitions = {
            (s, sym): (t, f)
            for s in sorted(self.trans, key=self.made.__getitem__)
            for sym, (t, f) in self.trans[s].items()
        }
        return canonicalize(0, transitions, name=name)


def build_pta(traces: Sequence[Trace | Sequence[str]], name: str | None = None) -> StateMachine:
    """Prefix tree acceptor: one state per distinct trace prefix."""
    pta = _RedBlue(PrefixTree(traces), LearnerConfig())
    for state, rank in enumerate(pta.made):  # no merge reads the rows: read each
        if rank >= 0:
            pta.row(state)
    return pta.to_state_machine(name=name)


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
