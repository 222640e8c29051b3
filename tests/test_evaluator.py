"""Trace mutation and k-fold cross-validation tests."""

import random

import pytest

from msaconform.automaton import StateMachine
from msaconform.errors import InputError
from msaconform.evaluator import EvalMetrics, _others, evaluate, mutate_trace
from msaconform.events import Trace
from msaconform.learner import LearnerConfig, build_pta


def tr(*symbols):
    return Trace(tuple(symbols))


class TestMutateTrace:
    def test_only_possible_mutation(self):
        assert mutate_trace(tr("a"), ["a", "b"], rng_seed=0).symbols == ("b",)

    def test_deterministic(self):
        t = tr("a", "b", "c")
        alphabet = ["a", "b", "c", "d"]
        assert mutate_trace(t, alphabet, 99).symbols == mutate_trace(t, alphabet, 99).symbols

    def test_never_equals_source(self):
        rng = random.Random(4)
        alphabet = [f"s{i}" for i in range(5)]
        for i in range(1000):
            t = tr(*(rng.choice(alphabet) for _ in range(rng.randint(1, 8))))
            assert mutate_trace(t, alphabet, i).symbols != t.symbols

    def test_exclusion(self):
        # trace [a]; alphabet [a,b,c]; excluding [b] forces [c]
        mutant = mutate_trace(tr("a"), ["a", "b", "c"], 0, exclude={("b",)})
        assert mutant.symbols == ("c",)

    def test_empty_trace(self):
        with pytest.raises(ValueError, match="cannot mutate an empty trace"):
            mutate_trace(tr(), ["a", "b"], 0)

    def test_alphabet_too_small(self):
        with pytest.raises(InputError, match="^need at least 2 symbols to mutate$"):
            mutate_trace(tr("a"), ["a"], 0)

    @pytest.mark.parametrize("symbol", ["a", "c", "e", "b0", "", "z", "0"])
    def test_others_is_the_alphabet_without_the_symbol(self, symbol):
        # inside the alphabet at its ends and middle, and outside it before,
        # between and after its symbols: the list the comprehension made
        alphabet = ["a", "b", "c", "d", "e"]
        for chosen in (alphabet, tuple(alphabet)):
            got = _others(chosen, symbol)
            assert type(got) is list and got is not chosen
            assert got == [s for s in chosen if s != symbol]

    def test_single_position_changed(self):
        rng = random.Random(12)
        alphabet = [f"s{i}" for i in range(4)]
        for i in range(200):
            t = tr(*(rng.choice(alphabet) for _ in range(5)))
            m = mutate_trace(t, alphabet, i)
            diffs = sum(1 for a, b in zip(t.symbols, m.symbols) if a != b)
            assert diffs == 1 and len(m.symbols) == len(t.symbols)


def corpus(n=60, seed=2):
    rng = random.Random(seed)
    shapes = [
        ("a", "b", "c"),
        ("a", "d", "e"),
        ("f", "b", "e"),
        ("f", "d", "c", "a"),
    ]
    return [Trace(rng.choice(shapes)) for _ in range(n)]


class TestEvaluate:
    def test_too_few_traces(self):
        with pytest.raises(InputError, match="^need at least k=10 traces, got 5$"):
            evaluate(corpus(5), LearnerConfig(), k=10, rng_seed=0)
        with pytest.raises(InputError, match="^need at least k=1 traces, got 5$"):
            evaluate(corpus(5), LearnerConfig(), k=1, rng_seed=0)

    def test_balanced_accuracy_identity(self):
        m = evaluate(corpus(), LearnerConfig(), k=5, rng_seed=1)
        assert m.balanced_accuracy == (m.recall + m.specificity) / 2

    def test_metrics_in_range(self):
        m = evaluate(corpus(), LearnerConfig(), k=10, rng_seed=1)
        assert 0 <= m.recall <= 1
        assert 0 <= m.specificity <= 1
        assert 0 <= m.balanced_accuracy <= 1

    def test_deterministic(self):
        a = evaluate(corpus(), LearnerConfig(), k=5, rng_seed=7)
        b = evaluate(corpus(), LearnerConfig(), k=5, rng_seed=7)
        assert a == b

    def test_forced_one_state_machine_row1(self):
        # fixed 1-node, 1-edge machine whose loop symbol is outside the
        # trace alphabet: rejects every positive and every mutant
        loop = StateMachine(frozenset({0}), 0, {(0, "zz"): (0, 1)})
        m = evaluate(corpus(), LearnerConfig(), k=10, rng_seed=0, model_fn=lambda _t: loop)
        assert m.recall == 0.0
        assert m.specificity == 1.0
        assert m.balanced_accuracy == 0.5
        assert m.avg_nodes == 1.0 and m.avg_edges == 1.0

    def test_oracle_pta_of_everything_recall_one(self):
        traces = corpus()
        oracle = build_pta(traces)
        m = evaluate(traces, LearnerConfig(), k=10, rng_seed=0, model_fn=lambda _t: oracle)
        assert m.recall == 1.0

    def test_output_formats(self):
        m = EvalMetrics(avg_nodes=2.0, avg_edges=3.0, recall=0.5, specificity=1.0,
                        balanced_accuracy=0.75)
        assert "balanced_accuracy" in m.to_json()
        table = m.to_table()
        assert "recall" in table and "0.750" in table
