"""The red-scan filter of ``learner._RedBlue.run`` skips only reds that
``_compatible`` would reject, so it changes no learned machine.

A red's witness is its heaviest outgoing symbol at promotion. The scan skips
the red for a blue that lacks the symbol when the symbol's frequency ratio
reaches the root pair's bound. These tests check every skip against
``_compatible`` itself, count how many checks the filter saves, and pin the
cases where a skip would be wrong: a blue below ``min_freq``, a red whose
total changed after its promotion, and a blue that has the symbol.
"""

import pytest
from hypothesis import given, settings

import _reference_learner as reference
from msaconform import learner
from msaconform.automaton import serialize_state_machine
from msaconform.events import extract_traces, parse_event_log
from msaconform.learner import LearnerConfig, PrefixTree, learn
from msaconform.scenario import ScenarioSpec, generate
from test_learner_oracle import ALPHAS, MIN_FREQS, assert_same_machine, trace_sets


class Recorder:
    """Wraps ``_RedBlue`` so that each blue's fate checks the skipped reds.

    On every merge or promotion of blue ``q``, each red the scan passed over
    without a ``_compatible`` call is checked now, on the same state: it must
    be incompatible with ``q``.
    """

    def __init__(self, monkeypatch):
        self.checked: list[tuple[int, int]] = []  # (red, blue) pairs _compatible saw
        self.skipped: list[tuple[int, int]] = []
        cls = learner._RedBlue
        compatible, merge, promote = cls._compatible, cls._merge, cls._promote
        rec = self

        def counting(self, red, blue):
            rec.checked.append((red, blue))
            return compatible(self, red, blue)

        def checking_merge(self, red, blue):
            rec.check_skips(self, blue, compatible, until=red)
            merge(self, red, blue)

        def checking_promote(self, state):
            if self.red:  # not the root
                rec.check_skips(self, state, compatible, until=None)
            promote(self, state)

        monkeypatch.setattr(cls, "_compatible", counting)
        monkeypatch.setattr(cls, "_merge", checking_merge)
        monkeypatch.setattr(cls, "_promote", checking_promote)

    def check_skips(self, rb, blue, compatible, until):
        tried = {red for red, b in self.checked if b == blue}
        for red in rb.red_order:
            if red == until:
                break
            if red not in tried:
                assert not compatible(rb, red, blue), (red, blue)
                self.skipped.append((red, blue))


def learn_recorded(monkeypatch, traces, cfg):
    rec = Recorder(monkeypatch)
    got = serialize_state_machine(learn(traces, cfg))
    monkeypatch.undo()
    assert got == serialize_state_machine(reference.learn(traces, cfg))
    return rec


@settings(max_examples=200, deadline=None)
@given(traces=trace_sets)
def test_every_skipped_red_is_incompatible(traces):
    with pytest.MonkeyPatch.context() as monkeypatch:
        for alpha in ALPHAS:
            for min_freq in MIN_FREQS:
                learn_recorded(monkeypatch, traces, LearnerConfig(alpha, min_freq))


def test_scenario_log_needs_few_checks(monkeypatch):
    """On a scenario log almost every red fails its root test on its witness."""
    _model, log, _truth = generate(ScenarioSpec(n_services=20, n_edges=40, n_events=5000,
                                                rng_seed=1))
    traces = extract_traces(parse_event_log(log), 1000)["global"]
    calls = {"filtered": 0, "reference": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(learner._RedBlue, "_compatible",
                        counting("filtered", learner._RedBlue._compatible))
    monkeypatch.setattr(reference, "_compatible", counting("reference", reference._compatible))
    assert_same_machine(traces, LearnerConfig())
    assert 0 < calls["filtered"] < 0.1 * calls["reference"], calls


def test_blue_below_min_freq_still_merges_into_root(monkeypatch):
    # the root's witness "a" is missing from the blue after "b", and at
    # alpha 1 its ratio 0.99 clears the bound even for n2 = 1; but below
    # min_freq _compatible passes over the root pair, so the blue merges
    traces = [["a"]] * 99 + [["b", "c"]]
    cfg = LearnerConfig(alpha=1.0, min_freq=2)
    pta = PrefixTree(traces)
    blue = pta.sym.index("b") + 1
    rec = learn_recorded(monkeypatch, traces, cfg)
    assert (0, blue) in rec.checked
    assert (0, 1) in rec.skipped  # the blue after "a": ends where the root never does


# Found by random search. In the first, the root is promoted with witness "b"
# at ratio 3/3; the blue after "b" merges into it, and its ratio drops to 4/7.
# The blue after "c" lacks "b" and is compatible with the grown root, but the
# ratio taken at promotion would skip the root for it.
STALE_WITNESS_CASES = [
    (["bb", "b", "bc"], LearnerConfig(alpha=1.0), (0, 3)),
    (["b", "b", "b", "a", "bc"], LearnerConfig(alpha=0.5), (0, 2)),
]


@pytest.mark.parametrize("traces, cfg, pair", STALE_WITNESS_CASES)
def test_red_grown_after_promotion_is_checked(monkeypatch, traces, cfg, pair):
    traces = [list(t) for t in traces]
    rec = learn_recorded(monkeypatch, traces, cfg)
    assert pair in rec.checked


def test_witness_symbol_in_the_blue_is_checked(monkeypatch):
    # runs of "a": the state after one "a" looks like the root, and has "a" too
    traces = [["a"] * n for n in (0, 1, 1, 2, 2, 2, 3, 3, 4, 5, 6, 8)] * 3
    rec = learn_recorded(monkeypatch, traces, LearnerConfig())
    assert rec.checked[0] == (0, 1)
    assert rec.skipped == []
    assert len(learn(traces, LearnerConfig()).states) == 1  # every blue folds into the root


def test_alpha_one_skips_more(monkeypatch):
    # alpha 1 gives the smallest bound, so the witness test fails most often
    traces = [list(t) for t in ("ab", "ab", "ac", "b", "bd", "ca", "cab", "d", "da", "dd")] * 4
    skipped = {alpha: len(learn_recorded(monkeypatch, traces, LearnerConfig(alpha)).skipped)
               for alpha in (0.05, 1.0)}
    assert skipped[1.0] > skipped[0.05], skipped
