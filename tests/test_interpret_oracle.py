"""The per-machine call index gives exactly the details the former code did.

``_reference_interpret`` keeps the former per-finding code verbatim. Every
case here requires byte-identical ``serialize_state_machine`` text for each
sub-machine, ``None`` where the reference raises ``NoInvolvedTransitions`` and equal
``CallSummary`` lists.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_interpret as reference
from msaconform.automaton import StateMachine, reachable_states, serialize_state_machine
from msaconform.events import format_symbol, parse_symbol
from msaconform.interpret import CallIndex
from msaconform.learner import LearnerConfig, build_pta, learn
from test_learner_oracle import random_walk_traces

SERVICES = ("a", "b", "c", "d")
TOP_NS = (1, 3, 100)

# well-formed only: the program checks every symbol where a machine enters it
symbols = st.builds(
    format_symbol,
    st.sampled_from(SERVICES),
    st.sampled_from(SERVICES),
    st.sampled_from(("GET", "POST")),
    st.sampled_from(("/x", "/y", "/z/{}")),
)


@st.composite
def machines(draw):
    """A random deterministic machine: a spanning tree attempt plus extra edges,
    cut down to the states the initial state reaches."""
    n = draw(st.integers(1, 12))
    edges = [(draw(st.integers(0, i - 1)), draw(symbols), i, draw(st.integers(1, 9)))
             for i in range(1, n)]
    edges += draw(st.lists(
        st.tuples(st.integers(0, n - 1), symbols, st.integers(0, n - 1), st.integers(1, 9)),
        max_size=30,
    ))
    transitions = {}
    for src, sym, dst, freq in edges:
        transitions.setdefault((src, sym), (dst, freq))
    reach = reachable_states(0, transitions)
    kept = {key: val for key, val in transitions.items() if key[0] in reach}
    return StateMachine(frozenset(reach), 0, kept, name="m")


def services_of(sm):
    return sorted(set(SERVICES).union(*(parse_symbol(sym)[:2] for _src, sym in sm.transitions)))


def reference_submachine(sm, a, b):
    try:
        return serialize_state_machine(reference.unexpected_behavior_submachine(sm, a, b))
    except reference.NoInvolvedTransitions:
        return None


def assert_same_details(sm, pairs, services, top_ns=TOP_NS):
    index = CallIndex(sm)
    for a, b in pairs:
        want = reference_submachine(sm, a, b)
        if want is None:
            assert index.submachine(a, b) is None
        else:
            assert serialize_state_machine(index.submachine(a, b)) == want
        for top_n in top_ns:
            want_calls = reference.most_frequent_calls(sm, a, b, top_n=top_n)
            assert index.calls_by_pair.get((a, b), [])[:top_n] == want_calls
    for service in services:
        for top_n in (0, *top_ns):
            want_calls = reference.calls_involving(sm, service, top_n=top_n)
            assert index.calls_by_service.get(service, [])[:top_n] == want_calls


@settings(max_examples=300, deadline=None)
@given(sm=machines())
def test_random_machines(sm):
    services = services_of(sm)
    pairs = [(a, b) for a in services for b in services]
    assert_same_details(sm, pairs, services)


@pytest.mark.parametrize("learned", [False, True], ids=["pta", "learned"])
def test_random_walks_large_pta(learned):
    traces = random_walk_traces(1_000, seed=7)
    sm = learn(traces, LearnerConfig()) if learned else build_pta(traces)
    if not learned:
        assert len(sm.states) > 2_000
    services = services_of(sm)
    edges = sorted({parse_symbol(sym)[:2] for _src, sym in sm.transitions})
    absent = [(b, a) for a, b in edges if (b, a) not in set(edges)][:10]
    assert_same_details(sm, edges + absent, services, top_ns=(5,))
