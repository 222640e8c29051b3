"""Memory held by a parsed ``.dot`` machine and by its call index, per
transition. ``tracemalloc`` counts the Python heap's own allocations, so the
figures repeat exactly from run to run."""

import random
import tracemalloc

import pytest

from msaconform.automaton import parse_state_machine, serialize_state_machine
from msaconform.events import parse_symbol
from msaconform.interpret import CallIndex
from msaconform.learner import build_pta


@pytest.fixture(scope="module")
def pta_text():
    """The text of a PTA of 3,423 transitions: 500 random traces of 3 to 12
    calls among 72 calls of 12 services."""
    rng = random.Random(1)
    services = [f"svc-{i}" for i in range(12)]
    symbols = [f"{a}→{b}:GET /{a}/{k}"
               for a in services for b in rng.sample(services, 3) for k in range(2)]
    traces = [[rng.choice(symbols) for _ in range(rng.randint(3, 12))] for _ in range(500)]
    return serialize_state_machine(build_pta(traces))


def held(build):
    """What ``build()`` gives, and the bytes it still holds once built."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_machine_and_call_index_bytes_per_transition(pta_text):
    """The parsed machine holds under 170 bytes a transition (151 measured)
    and its call index, serving every pair, under 70 (48 measured). They
    held 190 and 97 when the machine stored its state set and the index
    kept a list of each transition's source and a dict of each state's
    distance."""
    sm, machine_bytes = held(lambda: parse_state_machine(pta_text))
    n = len(sm.transitions)
    assert n == 3423
    pairs = {parse_symbol(symbol)[:2] for _state, symbol in sm.transitions}
    _index, index_bytes = held(lambda: CallIndex(sm, pairs))
    assert machine_bytes < 170 * n
    assert index_bytes < 70 * n
