"""Interpretation catalog, sub-machine extraction, and detail generation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_interpret as reference
import test_interpret_oracle as oracle
from msaconform.automaton import StateMachine, serialize_state_machine
from msaconform.detector import (NcKind, NonConformance, detect, extract_dynamic_view,
                                 extract_static_view)
from msaconform.events import parse_symbol
from msaconform.interpret import (
    CallIndex,
    CallSummary,
    dynamic_nc_details,
    finding_details,
    interpretations_for,
    static_nc_details,
)
from msaconform.report import render_nc_page
from msaconform.static_model import parse_static_model


def machine(transitions, initial=0):
    states = {initial}
    for (s, _sym), (t, _f) in transitions.items():
        states |= {s, t}
    return StateMachine(frozenset(states), initial, transitions)


class TestCatalog:
    def test_dynamic_contains_misconfiguration(self):
        titles = [i.title.lower() for i in interpretations_for(NcKind.Dynamic)]
        assert any("misconfiguration" in t for t in titles)

    def test_dynamic_contains_dead_code(self):
        titles = [i.title.lower() for i in interpretations_for(NcKind.Dynamic)]
        assert any("dead code" in t or "unreachable" in t for t in titles)

    def test_dynamic_contains_workload_and_drift(self):
        titles = " ".join(i.title.lower() for i in interpretations_for(NcKind.Dynamic))
        assert "workload" in titles
        assert "drift" in titles

    def test_static_categories(self):
        titles = " ".join(i.title.lower() for i in interpretations_for(NcKind.Static))
        assert "infrastructure" in titles
        assert "blind spot" in titles
        assert "endpoint" in titles

    def test_disjoint_nonempty_cause_ids(self):
        static_ids = {i.cause_id for i in interpretations_for(NcKind.Static)}
        dynamic_ids = {i.cause_id for i in interpretations_for(NcKind.Dynamic)}
        assert static_ids and dynamic_ids
        assert not static_ids & dynamic_ids

    def test_stable_across_calls(self):
        assert interpretations_for(NcKind.Static) == interpretations_for(NcKind.Static)


# 6-state machine: the only a→b transition is 3→4; state 2 feeds 3, state 5
# hangs off 4, state 1 is two hops away from any involved state
CHAIN = {
    (0, "x→y:GET /0"): (1, 1),
    (1, "x→y:GET /1"): (2, 1),
    (2, "x→y:GET /2"): (3, 1),
    (3, "a→b:GET /hit"): (4, 2),
    (4, "y→z:GET /4"): (5, 1),
}


class TestSubmachine:
    def test_distance_one_closure(self):
        sm = machine(CHAIN)
        sub = CallIndex(sm).submachine("a", "b")
        # oracle: brute-force filter on the handcrafted machine — involved
        # transition (3,4); adjacent transitions touch 3 or 4: (2→3), (4→5)
        symbols = {sym for (_s, sym) in sub.transitions}
        assert symbols == {"x→y:GET /2", "a→b:GET /hit", "y→z:GET /4"}
        freqs = {sym: f for (_s, sym), (_t, f) in sub.transitions.items()}
        assert freqs["a→b:GET /hit"] == 2

    def test_no_involved_transitions(self):
        sm = machine(CHAIN)
        assert CallIndex(sm).submachine("nope", "nothere") is None

    def test_all_involved_equals_whole(self):
        sm = machine({(0, "a→b:GET /x"): (1, 1), (1, "a→b:GET /y"): (0, 3)})
        sub = CallIndex(sm).submachine("a", "b")
        assert len(sub.states) == len(sm.states)
        assert sorted(sym for (_s, sym) in sub.transitions) == sorted(
            sym for (_s, sym) in sm.transitions
        )

    def test_transitions_subset_with_frequencies(self):
        sm = machine(CHAIN)
        sub = CallIndex(sm).submachine("a", "b")
        original = {(sym, f) for (_s, sym), (_t, f) in sm.transitions.items()}
        assert {(sym, f) for (_s, sym), (_t, f) in sub.transitions.items()} <= original


class TestMostFrequentCalls:
    def test_top_n(self):
        sm = machine({(0, "a→b:GET /x"): (1, 5), (1, "a→b:POST /y"): (0, 2)})
        calls = CallIndex(sm).calls_by_pair.get(("a", "b"), [])[:1]
        assert calls == [CallSummary("a", "b", "GET", "/x", 5)]

    def test_no_calls(self):
        sm = machine({(0, "c→d:GET /x"): (1, 5)})
        assert CallIndex(sm).calls_by_pair.get(("a", "b"), [])[:5] == []

    def test_grouping(self):
        sm = machine({(0, "a→b:GET /x"): (1, 3), (1, "a→b:GET /x"): (0, 4)})
        calls = CallIndex(sm).calls_by_pair.get(("a", "b"), [])[:5]
        assert calls == [CallSummary("a", "b", "GET", "/x", 7)]

    def test_counts_sum_to_total(self):
        sm = machine(
            {
                (0, "a→b:GET /x"): (1, 3),
                (1, "a→b:POST /y"): (2, 4),
                (2, "c→d:GET /z"): (0, 9),
            }
        )
        calls = CallIndex(sm).calls_by_pair.get(("a", "b"), [])[:100]
        assert sum(c.count for c in calls) == 7


def diamond_model():
    # user→gw, then two equal-length paths gw→left→sink and gw→right→sink
    return parse_static_model(
        json.dumps(
            {
                "services": [{"name": n} for n in ("gw", "left", "right", "sink", "pay")],
                "external_entities": [{"name": "user"}],
                "information_flows": [
                    {"sender": "user", "receiver": "gw"},
                    {"sender": "gw", "receiver": "left"},
                    {"sender": "gw", "receiver": "right"},
                    {"sender": "left", "receiver": "sink"},
                    {"sender": "right", "receiver": "sink"},
                    {
                        "sender": "sink",
                        "receiver": "pay",
                        "traceability": {"file": "sink/pay.py", "line": 12},
                    },
                ],
            }
        )
    )


class TestDynamicDetails:
    def test_unique_path(self):
        model = parse_static_model(
            json.dumps(
                {
                    "services": [{"name": n} for n in ("gateway", "order", "payment")],
                    "external_entities": [{"name": "user"}],
                    "information_flows": [
                        {"sender": "user", "receiver": "gateway"},
                        {"sender": "gateway", "receiver": "order"},
                        {"sender": "order", "receiver": "payment"},
                    ],
                }
            )
        )
        nc = NonConformance(NcKind.Dynamic, "edge", ("order", "payment"))
        details = dynamic_nc_details(model, nc)
        assert [(f.sender, f.receiver) for f in details.trigger_sequence] == [
            ("user", "gateway"),
            ("gateway", "order"),
            ("order", "payment"),
        ]

    def test_sender_is_entry(self):
        model = parse_static_model(
            json.dumps(
                {
                    "services": [{"name": "a"}, {"name": "b"}],
                    "information_flows": [{"sender": "a", "receiver": "b"}],
                }
            )
        )
        nc = NonConformance(NcKind.Dynamic, "edge", ("a", "b"))
        details = dynamic_nc_details(model, nc)
        assert [(f.sender, f.receiver) for f in details.trigger_sequence] == [("a", "b")]

    def test_diamond_lexicographic_tiebreak(self):
        model = diamond_model()
        nc = NonConformance(NcKind.Dynamic, "edge", ("sink", "pay"))
        details = dynamic_nc_details(model, nc)
        got = [(f.sender, f.receiver) for f in details.trigger_sequence]
        # oracle: both shortest paths enumerated, the smaller one goes via "left"
        all_paths = [
            [("user", "gw"), ("gw", "left"), ("left", "sink"), ("sink", "pay")],
            [("user", "gw"), ("gw", "right"), ("right", "sink"), ("sink", "pay")],
        ]
        assert got == min(all_paths)
        assert details.code_pointer is not None
        assert details.code_pointer.file == "sink/pay.py"

    def test_missing_traceability_degrades(self):
        model = parse_static_model(
            json.dumps(
                {
                    "services": [{"name": "a"}, {"name": "b"}],
                    "information_flows": [{"sender": "a", "receiver": "b"}],
                }
            )
        )
        nc = NonConformance(NcKind.Dynamic, "edge", ("a", "b"))
        details = dynamic_nc_details(model, nc)
        assert details.code_pointer is None

    def test_path_is_connected_and_ends_at_missing_edge(self):
        model = diamond_model()
        nc = NonConformance(NcKind.Dynamic, "edge", ("sink", "pay"))
        seq = dynamic_nc_details(model, nc).trigger_sequence
        for a, b in zip(seq, seq[1:]):
            assert a.receiver == b.sender
        assert (seq[-1].sender, seq[-1].receiver) == ("sink", "pay")

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            dynamic_nc_details(diamond_model(), NonConformance(NcKind.Static, "node", ("x",)))


class TestStaticDetails:
    def test_edge_subject(self):
        sm = machine(CHAIN)
        nc = NonConformance(NcKind.Static, "edge", ("a", "b"))
        details = static_nc_details(CallIndex(sm), nc, top_n=5)
        assert details.submachine is not None
        assert details.frequent_calls == (CallSummary("a", "b", "GET", "/hit", 2),)

    def test_node_subject(self):
        sm = machine(CHAIN)
        nc = NonConformance(NcKind.Static, "node", ("y",))
        details = static_nc_details(CallIndex(sm), nc, top_n=5)
        assert details.submachine is None
        assert all("y" in (c.caller, c.callee) for c in details.frequent_calls)

    def test_without_machine(self):
        nc = NonConformance(NcKind.Static, "edge", ("a", "b"))
        details = static_nc_details(None, nc, top_n=5)
        assert details.submachine is None and details.frequent_calls == ()


# scope names that sort both below and above "global"
SCOPES = ("global", "a-svc", "m-svc", "z-svc")


@st.composite
def static_models(draw):
    """A static model declaring a random subset of the machines' services and,
    among those, a random subset of the edges."""
    services = sorted(draw(st.sets(st.sampled_from(oracle.SERVICES))))
    edges = sorted(draw(st.sets(st.tuples(st.sampled_from(services), st.sampled_from(services))))
                   if services else ())
    flows = [{"sender": s, "receiver": r, "stereotypes": ["self-call"] if s == r else []}
             for s, r in edges]
    return parse_static_model(json.dumps({"services": [{"name": n} for n in services],
                                          "information_flows": flows}))


def holds(sm: StateMachine, nc: NonConformance) -> bool:
    """Whether a transition of ``sm`` is a call on the finding's subject."""
    pairs = {parse_symbol(sym)[:2] for _src, sym in sm.transitions}
    if nc.subject_type == "edge":
        return nc.names in pairs
    return any(nc.names[0] in pair for pair in pairs)


class TestFindingDetails:
    @settings(max_examples=200, deadline=None)
    @given(machines=st.dictionaries(st.sampled_from(SCOPES), oracle.machines(),
                                    min_size=1, max_size=4),
           model=static_models(), top_n=st.sampled_from((1, 3, 100)))
    def test_details_come_from_a_machine_holding_the_subject(self, machines, model, top_n):
        _tv, ncs = detect(extract_static_view(model),
                          extract_dynamic_view(list(machines.values())))
        details = finding_details(machines, model, ncs, top_n)
        assert sorted(details) == sorted(nc.id for nc in ncs)
        for nc in ncs:
            if nc.kind is not NcKind.Static:
                continue
            got = details[nc.id]
            holders = [scope for scope in machines if holds(machines[scope], nc)]
            picked = machines["global" if "global" in holders else min(holders)]
            assert got.frequent_calls
            if nc.subject_type == "edge":
                a, b = nc.names
                assert all((c.caller, c.callee) == (a, b) for c in got.frequent_calls)
                assert any(parse_symbol(sym)[:2] == (a, b)
                           for _src, sym in got.submachine.transitions)
                assert serialize_state_machine(got.submachine) == serialize_state_machine(
                    reference.unexpected_behavior_submachine(picked, a, b))
                want = reference.most_frequent_calls(picked, a, b, top_n=top_n)
            else:
                (name,) = nc.names
                assert all(name in (c.caller, c.callee) for c in got.frequent_calls)
                want = reference.calls_involving(picked, name, top_n=top_n)
            assert list(got.frequent_calls) == want

    def test_page_shows_the_global_machines_counts(self):
        machines = {"alpha": machine({(0, "a→b:GET /x"): (1, 3)}),
                    "global": machine({(0, "a→b:GET /x"): (1, 7)})}
        model = parse_static_model(json.dumps({"services": [], "information_flows": []}))
        nc = NonConformance(NcKind.Static, "edge", ("a", "b"))
        details = finding_details(machines, model, [nc], top_n=5)
        assert details[nc.id].frequent_calls == (CallSummary("a", "b", "GET", "/x", 7),)
        page = render_nc_page(nc, details[nc.id])
        assert "<td>7</td>" in page and "(7)" in page
        assert "<td>3</td>" not in page and "(3)" not in page
