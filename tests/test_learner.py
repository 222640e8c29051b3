"""Prefix tree construction and red-blue merging tests."""

import math
import random

import pytest

from msaconform.automaton import accepts, serialize_state_machine
from msaconform.errors import InputError
from msaconform.learner import LearnerConfig, build_pta, learn


def random_trace_set(rng: random.Random, n_symbols=4, n_traces=12, max_len=6):
    symbols = [f"sym{i}" for i in range(n_symbols)]
    return [
        [rng.choice(symbols) for _ in range(rng.randint(1, max_len))] for _ in range(n_traces)
    ]


class TestConfig:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            LearnerConfig(alpha=0)
        with pytest.raises(ValueError):
            LearnerConfig(alpha=1.5)
        with pytest.raises(ValueError):
            LearnerConfig(min_freq=-1)


class TestBuildPta:
    def test_shared_prefix(self):
        pta = build_pta([["a", "b"], ["a", "b"]])
        assert len(pta.states) == 3
        assert pta.transitions[(0, "a")][1] == 2
        after_a = pta.transitions[(0, "a")][0]
        assert pta.transitions[(after_a, "b")][1] == 2

    def test_branching(self):
        pta = build_pta([["a"], ["b"]])
        assert len(pta.states) == 3
        assert len(pta.transitions) == 2

    def test_empty_trace_set(self):
        with pytest.raises(InputError, match="^cannot learn from an empty trace set$"):
            build_pta([])

    def test_prefix_membership_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            traces = random_trace_set(rng)
            pta = build_pta(traces)
            prefixes = {tuple(t[:i]) for t in traces for i in range(len(t) + 1)}
            for t in traces:
                assert accepts(pta, t)
            # any sequence that is not a prefix of a training trace is rejected
            for _ in range(20):
                probe = tuple(rng.choice([f"sym{i}" for i in range(5)]) for _ in range(4))
                assert accepts(pta, probe) == (probe in prefixes)


def hoeffding_pairs_all_fail(traces, alpha):
    """Independent oracle: direct Hoeffding computation over all PTA
    state pairs, with termination counted as a virtual symbol."""
    END = object()
    rows = {0: {}}
    ends = {0: 0}
    next_id = [1]

    def insert(trace):
        s = 0
        for sym in trace:
            if sym not in rows[s]:
                rows[s][sym] = [next_id[0], 0]
                rows[next_id[0]] = {}
                ends[next_id[0]] = 0
                next_id[0] += 1
            rows[s][sym][1] += 1
            s = rows[s][sym][0]
        ends[s] += 1

    for t in traces:
        insert(t)
    coeff = math.sqrt(0.5 * math.log(2 / alpha))
    states = sorted(rows)
    for a in states:
        for b in states:
            if a >= b:
                continue
            n1 = sum(f for _t, f in rows[a].values()) + ends[a]
            n2 = sum(f for _t, f in rows[b].values()) + ends[b]
            bound = coeff * (1 / math.sqrt(n1) + 1 / math.sqrt(n2))
            syms = set(rows[a]) | set(rows[b]) | {END}
            passed = True
            for sym in syms:
                if sym is END:
                    f1, f2 = ends[a], ends[b]
                else:
                    f1 = rows[a].get(sym, (0, 0))[1]
                    f2 = rows[b].get(sym, (0, 0))[1]
                if abs(f1 / n1 - f2 / n2) >= bound:
                    passed = False
                    break
            if passed:
                return False
    return True


class TestLearn:
    def test_tiny_alpha_single_state(self):
        sm = learn([["a"], ["a", "a"], ["a", "a", "a"]], LearnerConfig(alpha=1e-12))
        assert len(sm.states) == 1
        assert sm.transitions == {(0, "a"): (0, 6)}

    def test_min_freq_forces_maximal_merging(self):
        traces = [["a", "b"], ["b", "a"], ["a", "a"]]
        sm = learn(traces, LearnerConfig(alpha=1.0, min_freq=10_000))
        assert len(sm.states) == 1

    def test_alpha_one_no_merges_on_distinct_chain(self):
        # one long trace and its proper prefixes, heavily repeated: every
        # PTA state has a distinct (symbol + termination) distribution
        traces = [["a"]] * 10 + [["a", "b"]] * 10 + [["a", "b", "c"]] * 10
        assert hoeffding_pairs_all_fail(traces, alpha=1.0)
        pta = build_pta(traces)
        sm = learn(traces, LearnerConfig(alpha=1.0, min_freq=0))
        assert serialize_state_machine(sm) == serialize_state_machine(pta)

    def test_training_traces_always_accepted(self):
        rng = random.Random(31)
        for _ in range(30):
            traces = random_trace_set(rng)
            for alpha in (1e-12, 0.01, 0.5, 1.0):
                sm = learn(traces, LearnerConfig(alpha=alpha))
                for t in traces:
                    assert accepts(sm, t)

    def test_size_bounds(self):
        rng = random.Random(17)
        for _ in range(20):
            traces = random_trace_set(rng)
            pta_size = len(build_pta(traces).states)
            for alpha in (1e-12, 0.05, 1.0):
                size = len(learn(traces, LearnerConfig(alpha=alpha)).states)
                assert 1 <= size <= pta_size

    def test_deterministic(self):
        rng = random.Random(8)
        traces = random_trace_set(rng, n_traces=30)
        a = serialize_state_machine(learn(traces, LearnerConfig(alpha=0.05)))
        b = serialize_state_machine(learn(traces, LearnerConfig(alpha=0.05)))
        assert a == b

    def test_empty_trace_set(self):
        with pytest.raises(InputError, match="^cannot learn from an empty trace set$"):
            learn([], LearnerConfig())
