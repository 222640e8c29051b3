"""``learner._RedBlue._compatible`` walks the blue state's row and decides
exactly as the check that scanned the red state's whole row.

The red row's own symbols are scanned only when its heaviest frequency,
``top``, reaches the bound, and a pair whose blue total is at most ``sure``
is skipped with its subtree. These tests check every call against a copy of
the full-row check on the same state, check that ``top`` and ``heavy`` stay
exact through every merge, and pin ``sure`` and the case where the heaviest
ratio equals the bound.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msaconform import learner
from msaconform.learner import LearnerConfig, PrefixTree, learn
from test_learner_oracle import random_walk_traces

# sure is 11, 3, 1, 0 and 0
ALPHAS = (1e-10, 0.001, 0.05, 0.5, 1.0)
MIN_FREQS = (0, 2, 10)
SURE = {1e-10: 11, 0.001: 3, 0.05: 1, 0.5: 0, 1.0: 0}

trace_sets = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=0, max_size=8), min_size=1, max_size=60
)


def full_row_compatible(rb, red: int, blue: int) -> tuple[bool, int]:
    """The check that scans both rows in full at every pair, with guards
    against a repeated pair and a pair of one state.

    It visits every pair instead of returning at the first failure, so that
    the guards are tried on the whole closure; the result is the same. It
    returns the result and how often a guard fired.
    """
    end, total = rb.end, rb.total
    compatible, guard_hits = True, 0
    seen = set()
    stack = [(red, blue)]
    while stack:
        pair = stack.pop()
        a, b = pair
        if a == b or pair in seen:
            guard_hits += 1
            continue
        seen.add(pair)
        n1, n2 = total[a], total[b]
        if n1 < rb.min_freq or n2 < rb.min_freq or n1 == 0 or n2 == 0:
            continue
        bound = rb.coeff * (1.0 / math.sqrt(n1) + 1.0 / math.sqrt(n2))
        if abs(end[a] / n1 - end[b] / n2) >= bound:
            compatible = False
        row_a, row_b = rb.row(a), rb.row(b)
        for sym, (ta, f1) in row_a.items():
            tb_f2 = row_b.get(sym)
            if tb_f2 is None:
                if f1 / n1 >= bound:
                    compatible = False
            else:
                if abs(f1 / n1 - tb_f2[1] / n2) >= bound:
                    compatible = False
                stack.append((ta, tb_f2[0]))
        for sym, (_tb, f2) in row_b.items():
            if sym not in row_a and f2 / n2 >= bound:
                compatible = False
    return compatible, guard_hits


def assert_top_exact(rb):
    """``top`` is each row's heaviest frequency and ``heavy`` a symbol holding
    it, or ``""`` for an empty row."""
    for state, row in rb.trans.items():
        assert rb.top[state] == max((f for _t, f in row.values()), default=0), state
        if row:
            assert row[rb.heavy[state]][1] == rb.top[state], state
        else:
            assert rb.heavy[state] == "", state


def learn_checked(monkeypatch, traces, cfg) -> int:
    """Learn with every ``_compatible`` call compared to the full-row check
    and ``top`` and ``heavy`` checked after every merge; return the number
    of calls."""
    cls = learner._RedBlue
    init, compatible, merge = cls.__init__, cls._compatible, cls._merge
    calls = []

    def checking_init(self, tree, cfg):
        init(self, tree, cfg)
        assert_top_exact(self)

    def checking_compatible(self, red, blue):
        got = compatible(self, red, blue)
        assert (got, 0) == full_row_compatible(self, red, blue), (red, blue)
        calls.append((red, blue))
        return got

    def checking_merge(self, red, blue):
        merge(self, red, blue)
        assert_top_exact(self)

    monkeypatch.setattr(cls, "__init__", checking_init)
    monkeypatch.setattr(cls, "_compatible", checking_compatible)
    monkeypatch.setattr(cls, "_merge", checking_merge)
    learn(traces, cfg)
    monkeypatch.undo()
    return len(calls)


@settings(max_examples=300, deadline=None)
@given(traces=trace_sets)
def test_every_check_decides_as_the_full_row_check(traces):
    with pytest.MonkeyPatch.context() as monkeypatch:
        for alpha in ALPHAS:
            for min_freq in MIN_FREQS:
                learn_checked(monkeypatch, traces, LearnerConfig(alpha, min_freq))


@pytest.mark.parametrize("alpha", (1e-10, 0.05, 1.0))
def test_random_walks(monkeypatch, alpha):
    # walks over a call graph: rows of up to a few dozen symbols, and merges
    # that fold blue subtrees into loops of the red core
    traces = random_walk_traces(1_000, seed=3)
    assert learn_checked(monkeypatch, traces, LearnerConfig(alpha)) > 100


@pytest.mark.parametrize("alpha", ALPHAS)
def test_sure_is_the_largest_total_that_cannot_fail(alpha):
    rb = learner._RedBlue(PrefixTree([["a"]]), LearnerConfig(alpha))
    coeff, sure = rb.coeff, rb.sure
    assert sure == SURE[alpha]
    # with n2 = sure the bound exceeds 1.0 for every n1, and with sure + 1 it
    # does not for a large enough n1
    for n1 in (*range(1, 200), 10**6, 10**40):
        if sure:
            assert coeff * (1.0 / math.sqrt(n1) + 1.0 / math.sqrt(sure)) > 1.0
    assert coeff * (1.0 / math.sqrt(10**40) + 1.0 / math.sqrt(sure + 1)) <= 1.0


def test_smallest_alpha_keeps_a_finite_bound(monkeypatch):
    # the smallest alpha LearnerConfig accepts, where 2 / alpha is the
    # largest float; one step below, 2 / alpha overflows and it is refused
    alpha = math.nextafter(2.0 / sys.float_info.max, 1.0)
    with pytest.raises(ValueError):
        LearnerConfig(math.nextafter(alpha, 0.0))
    rb = learner._RedBlue(PrefixTree([["a"]]), LearnerConfig(alpha))
    assert math.isfinite(rb.coeff) and rb.sure == 354
    # totals above sure can fail: the root, where no trace ends, stays apart
    # from the blue after "a", where every trace ends
    traces = [["a"]] * 2000 + [["b", "b"]] * 2000
    assert learn_checked(monkeypatch, traces, LearnerConfig(alpha)) > 0
    assert len(learn(traces, LearnerConfig(alpha)).states) == 3


def test_heaviest_ratio_equal_to_the_bound_fails():
    # The root's row is x:7, w:2, y:1, z:1 (total 11) and the blue after w
    # has y:1, z:1 (total 2). This alpha, found by search, makes the root
    # pair's bound exactly 7/11, the ratio of the root's heaviest symbol x,
    # which the blue lacks: the check must scan the root's row and fail.
    alpha = 0.9021372155964638
    traces = [["x"]] * 7 + [["w", "y"], ["w", "z"], ["y"], ["z"]]
    tree = PrefixTree(traces)
    blue = next(t for t, (s, sym) in enumerate(zip(tree.src, tree.sym)) if s == 0 and sym == "w")
    rb = learner._RedBlue(tree, LearnerConfig(alpha))
    assert rb.top[0] == 7 and rb.total[0] == 11 and rb.total[blue] == 2
    assert rb.coeff * (1.0 / math.sqrt(11) + 1.0 / math.sqrt(2)) == 7 / 11
    assert rb._compatible(0, blue) is full_row_compatible(rb, 0, blue)[0] is False
