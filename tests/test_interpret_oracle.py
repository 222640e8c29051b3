"""The per-machine call index and the trigger path search give exactly the
details the former code did.

``_reference_interpret`` keeps the former per-finding code verbatim. Every
case here requires byte-identical ``serialize_state_machine`` text for each
sub-machine, ``None`` where the reference raises ``NoInvolvedTransitions``, equal
``CallSummary`` lists, and the very same ``Flow`` objects on each trigger path.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference_interpret as reference
from msaconform.automaton import (StateMachine, breadth_first, reachable_states,
                                  serialize_state_machine)
from msaconform.events import format_symbol, parse_symbol
from msaconform.interpret import CallIndex, ModelIndex, _trigger_path
from msaconform.learner import LearnerConfig, build_pta, learn
from msaconform.static_model import Flow, ServiceNode, StaticModel
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
    index = CallIndex(sm, set(pairs))
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


NAMES = ("a", "b", "c", "d", "e")


def model_of(services=(), externals=(), flows=()):
    """A static model; each flow is a new ``Flow`` object, so two flows of one
    pair are equal but not the same object."""
    return StaticModel(services=tuple(ServiceNode(name) for name in services),
                       external_entities=tuple(ServiceNode(name) for name in externals),
                       flows=tuple(Flow(sender, receiver) for sender, receiver in flows))


# few names, so that pairs repeat, flows loop back to their sender, and
# entries tie in distance and name; external entities or none
static_models = st.builds(
    model_of,
    st.lists(st.sampled_from(NAMES), unique=True),
    st.one_of(st.just([]), st.lists(st.sampled_from(NAMES), unique=True, max_size=2)),
    st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)), max_size=14),
)
DIAMOND = [("x", "a"), ("x", "b"), ("b", "c"), ("a", "c"), ("a", "c"), ("c", "c")]
# entries at two distances from "c": e and x tie nearest (e-b-c, x-b-c), and
# d, less than both, is a hop farther (d-a-b-c); a loops, and c flows back to a
LAYERED = [("d", "a"), ("x", "b"), ("a", "b"), ("e", "b"), ("b", "c"), ("a", "a"), ("c", "a")]


@settings(max_examples=3000, deadline=None)
@given(model=static_models, target=st.sampled_from((*NAMES, "x", "zz")))
@example(model=model_of("abc", "x", DIAMOND), target="c")  # tie: x-a-c, by a's first flow
@example(model=model_of("abc", "x", DIAMOND), target="x")  # the target is an entry
@example(model=model_of("abc", (), [("b", "a"), ("a", "b")]), target="a")  # no entry
@example(model=model_of("abc", "x", [("b", "a")]), target="a")  # no entry reaches it
@example(model=model_of("abc", "x", DIAMOND), target="zz")  # not in the model
@example(model=model_of("abcd", (), [("b", "c"), ("a", "c"), ("c", "d")]), target="d")
@example(model=model_of("abc", "dex", LAYERED), target="c")  # a tie, with farther entries
@example(model=model_of("abcde", (), LAYERED[:3]), target="b")  # entries c, d, e: d at two hops
def test_trigger_path_takes_the_former_flows(model, target):
    """The trigger path is the one the former search took, flow for flow:
    the very objects the former first-match lookup gave at each hop."""
    want = reference._shortest_flow_path(model, target)
    got = _trigger_path(ModelIndex(model), target)
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


def test_trigger_path_tie_takes_the_first_flow_of_the_least_pair():
    model = model_of("abc", "x", DIAMOND)
    index = ModelIndex(model)
    assert _trigger_path(index, "c") == (Flow("x", "a"), Flow("a", "c"))
    assert _trigger_path(index, "c")[1] is model.flows[3]


def test_trigger_path_starts_at_the_least_of_the_nearest_entries():
    """Entries e and x tie at two hops from c; d, the least entry, is three
    hops away and is not taken, and the walk upstream ends at the tie."""
    model = model_of("abc", "dex", LAYERED)
    index = ModelIndex(model)
    assert _trigger_path(index, "c") == (Flow("e", "b"), Flow("b", "c"))
    assert _trigger_path(index, "c")[0] is model.flows[3]
    assert breadth_first(["c"], index.senders, until=index.entries) == {
        "c": 0, "b": 1, "x": 2, "a": 2, "e": 2}
    assert _trigger_path(index, "a") == (Flow("d", "a"),)
