"""Memory of building a prefix tree and the merge loop's state, per PTA state.
``tracemalloc`` counts the Python heap's own allocations, so the figures
repeat exactly from run to run."""

import random
import tracemalloc

import pytest

from msaconform import learner
from msaconform.learner import LearnerConfig, PrefixTree


@pytest.fixture(scope="module")
def traces():
    """500 random traces of 3 to 12 calls among 72 calls of 12 services,
    whose prefix tree has 3,424 states."""
    rng = random.Random(1)
    services = [f"svc-{i}" for i in range(12)]
    symbols = [f"{a}→{b}:GET /{a}/{k}"
               for a in services for b in rng.sample(services, 3) for k in range(2)]
    return [[rng.choice(symbols) for _ in range(rng.randint(3, 12))] for _ in range(500)]


def measured(build):
    """What ``build()`` gives, the peak bytes it allocated on the way, and
    the bytes it still holds once built."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        current, peak = tracemalloc.get_traced_memory()
        return result, peak - before, current - before
    finally:
        tracemalloc.stop()


def test_tree_build_peak_per_state(traces):
    """Building the tree peaks under 150 bytes a state (77 measured) and
    keeps under 70 (58 measured). The build peaked at 327 when it made a
    child dict per state in a trie first and then numbered the trie
    breadth-first."""
    tree, peak, kept = measured(lambda: PrefixTree(traces))
    n = len(tree.src)
    assert n == 3424
    assert peak < 150 * n
    assert kept < 70 * n


def test_merge_loop_setup_peak_per_state(traces):
    """Setting up the merge loop on the tree peaks under 80 bytes a state
    (58 measured, 103 when the child chains and made ranks were lists). It
    peaked at 302 when it built a row dict, and a ``(target, freq)`` tuple
    per edge, for every state at once."""
    tree = PrefixTree(traces)
    _rb, peak, _kept = measured(lambda: learner._RedBlue(tree, LearnerConfig()))
    assert peak < 80 * len(tree.src)


def test_merge_loop_run_peak_per_state(traces):
    """Setting up and running the merge loop on the tree peaks under 90
    bytes a state (72 measured, 109 when the child chains and made ranks
    were lists)."""
    tree = PrefixTree(traces)
    _rb, peak, _kept = measured(lambda: learner._RedBlue(tree, LearnerConfig()).run())
    assert peak < 90 * len(tree.src)
