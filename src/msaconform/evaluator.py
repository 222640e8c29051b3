"""Model-correctness evaluation: k-fold cross-validation with mutated
negative traces, reporting recall, specificity, and balanced accuracy.

Negatives are produced by single-symbol substitution: one position of a
held-out trace gets a different symbol from the alphabet, re-drawn if the
mutant collides with a training trace. Classes are balanced (one negative
per positive) so balanced accuracy is directly interpretable.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from typing import Callable, NamedTuple, Sequence

from .automaton import StateMachine, accepts
from .errors import InputError
from .events import Trace
from .learner import LearnerConfig, PrefixTree, learn


class EvalMetrics(NamedTuple):
    avg_nodes: float
    avg_edges: float
    recall: float
    specificity: float
    balanced_accuracy: float

    def to_json(self) -> str:
        return json.dumps(self._asdict(), indent=2) + "\n"

    def to_table(self) -> str:
        header = f"{'avg_nodes':>12} {'avg_edges':>12} {'recall':>8} {'specificity':>12} {'balanced_accuracy':>18}"
        row = (
            f"{self.avg_nodes:>12.2f} {self.avg_edges:>12.2f} {self.recall:>8.3f} "
            f"{self.specificity:>12.3f} {self.balanced_accuracy:>18.3f}"
        )
        return header + "\n" + row + "\n"


def _others(alphabet: Sequence[str], symbol: str) -> list[str]:
    """``alphabet``, a sorted list of distinct symbols, without ``symbol``, as
    a new list in the same order."""
    i = bisect_left(alphabet, symbol)
    j = i + 1 if i < len(alphabet) and alphabet[i] == symbol else i
    return [*alphabet[:i], *alphabet[j:]]


def mutate_trace(
    trace: Trace,
    alphabet: Sequence[str],
    rng_seed: int,
    exclude: set[tuple[str, ...]] | frozenset[tuple[str, ...]] = frozenset(),
) -> Trace:
    """Replace one symbol by a different one from ``alphabet``, a sorted list of
    distinct symbols, avoiding the excluded traces."""
    symbols = trace.symbols
    if not symbols:
        raise ValueError("cannot mutate an empty trace")
    if len(alphabet) < 2:
        raise InputError("need at least 2 symbols to mutate")
    rng = random.Random(rng_seed)
    start = rng.randrange(len(symbols))
    for offset in range(len(symbols)):
        pos = (start + offset) % len(symbols)
        choices = _others(alphabet, symbols[pos])
        rng.shuffle(choices)
        for replacement in choices:
            mutant = symbols[:pos] + (replacement,) + symbols[pos + 1:]
            if mutant not in exclude:
                return Trace(mutant)
    # the log is too uniform to evaluate, like one with too few traces or symbols
    raise InputError("every single-symbol mutant collides with a training trace")


def _fold_indices(n: int, k: int, rng: random.Random) -> list[list[int]]:
    idx = list(range(n))
    rng.shuffle(idx)
    folds: list[list[int]] = [[] for _ in range(k)]
    for i, j in enumerate(idx):
        folds[i % k].append(j)
    return folds


ModelFn = Callable[[list[Trace]], StateMachine]


def evaluate(
    traces: Sequence[Trace],
    cfg: LearnerConfig,
    k: int,
    rng_seed: int,
    model_fn: ModelFn | None = None,
) -> EvalMetrics:
    """k-fold cross-validation of the learner (or an injected model builder).

    ``model_fn`` overrides learning; it receives the training traces of a
    fold and returns the machine to evaluate. This supports oracle models
    and degenerate fixed machines. Without it, every fold's prefix tree is
    derived from one tree of all ``traces``.
    """
    if k < 2 or len(traces) < k:
        raise InputError(f"need at least k={k} traces, got {len(traces)}")
    tree = PrefixTree(traces) if model_fn is None else None

    alphabet = sorted({sym for t in traces for sym in t.symbols})
    rng = random.Random(rng_seed)
    folds = _fold_indices(len(traces), k, rng)

    recalls, specs, nodes, edges = [], [], [], []
    for fold_no, test_idx in enumerate(folds):
        test = [traces[i] for i in test_idx]
        test_set = set(test_idx)
        train = [t for i, t in enumerate(traces) if i not in test_set]
        if tree is None:
            model = model_fn(train)
        else:
            model = learn(train, cfg, pta=tree.without(test_idx))
        exclude = {t.symbols for t in train}

        accepted = sum(1 for t in test if accepts(model, t.symbols))
        negatives = [
            mutate_trace(t, alphabet, rng_seed=rng_seed * 10007 + fold_no * 101 + j,
                         exclude=exclude)
            for j, t in enumerate(test)
        ]
        rejected = sum(1 for t in negatives if not accepts(model, t.symbols))

        recalls.append(accepted / len(test))
        specs.append(rejected / len(negatives))
        nodes.append(len(model.states))
        edges.append(len(model.transitions))

    recall = sum(recalls) / k
    specificity = sum(specs) / k
    return EvalMetrics(
        avg_nodes=sum(nodes) / k,
        avg_edges=sum(edges) / k,
        recall=recall,
        specificity=specificity,
        balanced_accuracy=(recall + specificity) / 2,
    )
