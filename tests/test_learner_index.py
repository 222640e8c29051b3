"""The red index of ``learner._RedBlue`` changes which reds the scan visits,
not which it checks.

``Linear`` keeps the scan as it was before the index: every red in id
order, skipped by the same exact test. On every case the index must make
the very same ``(red, blue)`` calls to ``_compatible``, in the same order,
and so learn the same machine.
"""

import math

import pytest
from hypothesis import given, settings

from msaconform import learner
from msaconform.automaton import serialize_state_machine
from msaconform.events import extract_traces, parse_event_log
from msaconform.learner import LearnerConfig, PrefixTree
from msaconform.scenario import ScenarioSpec, generate
from test_learner_oracle import ALPHAS, MIN_FREQS, trace_sets


class Recording(learner._RedBlue):
    """The learner's loop, noting each ``_compatible`` call and how often the
    index gave fewer reds than all of them."""

    def __init__(self, tree, cfg):
        super().__init__(tree, cfg)
        self.checked: list[tuple[int, int]] = []
        self.narrowed = 0

    def _compatible(self, red, blue):
        self.checked.append((red, blue))
        return super()._compatible(red, blue)

    def _reds_to_try(self, row_q, inv_b):
        reds = super()._reds_to_try(row_q, inv_b)
        self.narrowed += reds is not self.red_order
        return reds


class Linear(Recording):
    """The scan before the index: every red, in id order, for every blue."""

    def run(self):
        total, top, heavy = self.total, self.top, self.heavy
        coeff, min_freq, sqrt = self.coeff, self.min_freq, math.sqrt
        while (q := self._next_blue()) is not None:
            n2 = total[q]
            row_q = self.row(q)
            inv_b = 1.0 / sqrt(n2) if n2 > 0 and n2 >= min_freq else None
            for r in self.red_order:
                n1 = total[r]
                if (inv_b is not None and n1 >= min_freq and heavy[r] not in row_q
                        and top[r] / n1 >= coeff * (1.0 / sqrt(n1) + inv_b)):
                    continue
                if self._compatible(r, q):
                    self._merge(r, q)
                    break
            else:
                self._promote(q)
        return self


def assert_same_checks(traces, cfg) -> Recording:
    tree = PrefixTree(traces)
    got, want = Recording(tree, cfg).run(), Linear(tree, cfg).run()
    assert got.checked == want.checked
    assert (serialize_state_machine(got.to_state_machine())
            == serialize_state_machine(want.to_state_machine()))
    return got


@settings(max_examples=200, deadline=None)
@given(traces=trace_sets)
def test_index_makes_the_linear_scans_checks(traces):
    for alpha in ALPHAS:
        for min_freq in MIN_FREQS:
            assert_same_checks(traces, LearnerConfig(alpha, min_freq))


# runs of one symbol in front of distinct tails: many reds, each with its own
# heaviest symbol, so the index leaves most of them out
@settings(max_examples=100, deadline=None)
@given(traces=trace_sets)
def test_index_on_many_reds(traces):
    prefixed = [[f"s{i % 7}", *trace, f"t{i}"] for i, trace in enumerate(traces)] * 3
    for alpha in ALPHAS:
        for min_freq in MIN_FREQS:
            assert_same_checks(prefixed, LearnerConfig(alpha, min_freq))


@pytest.mark.parametrize("n_services", [20, 60])
def test_scenario_log_checks_and_visits(n_services):
    """On a scenario log the index gives fewer reds than all for almost
    every blue."""
    _model, log, _truth = generate(ScenarioSpec(n_services=n_services, n_edges=3 * n_services,
                                                n_events=5000, rng_seed=1))
    traces = extract_traces(parse_event_log(log), 1000)["global"]
    for alpha in ALPHAS:
        for min_freq in MIN_FREQS:
            assert_same_checks(traces, LearnerConfig(alpha, min_freq))
    got = assert_same_checks(traces, LearnerConfig())
    assert got.narrowed > 0.9 * len(got.red)


def skipped(rb, red, row_q, inv_b) -> bool:
    """The scan's exact skip test."""
    n1 = rb.total[red]
    return (n1 >= rb.min_freq and rb.heavy[red] not in row_q
            and rb.top[red] / n1 >= rb.coeff * (1.0 / math.sqrt(n1) + inv_b))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_reds_left_out_are_skipped_at_their_thresholds(alpha):
    """For a blue whose ``1 / sqrt(n2)`` lies at a red's threshold, or one
    float step to either side, every red the index leaves out is one the
    exact test skips."""
    _model, log, _truth = generate(ScenarioSpec(n_services=30, n_edges=90, n_events=5000,
                                                rng_seed=2))
    rb = Recording(PrefixTree(extract_traces(parse_event_log(log), 1000)["global"]),
                   LearnerConfig(alpha)).run()
    row_q = {}  # a blue with an empty row: only the thresholds decide
    for threshold in rb.thresholds:
        for inv_b in (math.nextafter(threshold, -1.0), threshold, math.nextafter(threshold, 2.0)):
            if 0 < inv_b <= 1:
                reds = set(rb._reds_to_try(row_q, inv_b))
                assert all(red in reds for red in rb.red_order
                           if not skipped(rb, red, row_q, inv_b)), inv_b
    assert rb.narrowed > 0.5 * len(rb.thresholds)


def test_changed_red_is_tried_for_every_blue():
    # the root is indexed under "b" at promotion and changes when the blue
    # after "b" folds into it; from then on it sits at -inf, tried for
    # every blue
    traces = [list(t) for t in ("bb", "b", "bc")]
    tree = PrefixTree(traces)
    rb = Recording(tree, LearnerConfig(alpha=1.0))
    assert 0 in rb.indexed and -math.inf not in rb.thresholds
    rb.run()
    assert 0 not in rb.indexed
    assert all(0 not in bucket for bucket in rb.buckets.values())
    assert rb.by_threshold.count(0) == 1
    assert rb.thresholds[rb.by_threshold.index(0)] == -math.inf
    assert_same_checks(traces, LearnerConfig(alpha=1.0))


def test_red_below_min_freq_is_never_indexed():
    traces = [["a", "b"]] * 3 + [["c"]]
    rb = learner._RedBlue(PrefixTree(traces), LearnerConfig(min_freq=10))
    assert rb.indexed == {} and rb.buckets == {}
    assert rb.thresholds == [-math.inf] and rb.by_threshold == [0]


def test_equal_thresholds_unindex_the_right_red():
    # three reds share a threshold; the middle one changes
    rb = learner._RedBlue(PrefixTree([["a"]] * 9), LearnerConfig())
    rb.heavy[:] = ["x"] * 10
    rb.thresholds[:] = [0.1, 0.2, 0.2, 0.2, 0.3]
    rb.by_threshold[:] = [5, 7, 3, 9, 2]
    rb.indexed.update({5: 0.1, 7: 0.2, 3: 0.2, 9: 0.2, 2: 0.3})
    rb.buckets["x"] = [5, 7, 3, 9, 2]
    rb._unindex(3)
    assert rb.thresholds == [-math.inf, 0.1, 0.2, 0.2, 0.3]
    assert rb.by_threshold == [3, 5, 7, 9, 2]
    assert rb.buckets["x"] == [5, 7, 9, 2]
    assert 3 not in rb.indexed
