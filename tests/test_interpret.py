"""Interpretation catalog, sub-machine extraction, and detail generation."""

import json

import pytest

from msaconform.automaton import StateMachine
from msaconform.detector import NcKind, NonConformance
from msaconform.errors import NoInvolvedTransitions
from msaconform.interpret import (
    CallIndex,
    CallSummary,
    dynamic_nc_details,
    interpretations_for,
    static_nc_details,
)
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
        with pytest.raises(NoInvolvedTransitions):
            CallIndex(sm).submachine("nope", "nothere")

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
        calls = CallIndex(sm).most_frequent_calls("a", "b", top_n=1)
        assert calls == [CallSummary("a", "b", "GET", "/x", 5)]

    def test_no_calls(self):
        sm = machine({(0, "c→d:GET /x"): (1, 5)})
        assert CallIndex(sm).most_frequent_calls("a", "b", top_n=5) == []

    def test_grouping(self):
        sm = machine({(0, "a→b:GET /x"): (1, 3), (1, "a→b:GET /x"): (0, 4)})
        calls = CallIndex(sm).most_frequent_calls("a", "b", top_n=5)
        assert calls == [CallSummary("a", "b", "GET", "/x", 7)]

    def test_counts_sum_to_total(self):
        sm = machine(
            {
                (0, "a→b:GET /x"): (1, 3),
                (1, "a→b:POST /y"): (2, 4),
                (2, "c→d:GET /z"): (0, 9),
            }
        )
        calls = CallIndex(sm).most_frequent_calls("a", "b", top_n=100)
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
