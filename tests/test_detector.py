"""View extraction and non-conformance detection tests."""

import random

from msaconform.automaton import StateMachine
from msaconform.detector import (
    ArchView,
    NcKind,
    NonConformance,
    PresenceTag,
    detect,
    extract_dynamic_view,
    extract_static_view,
)
from msaconform.static_model import parse_static_model
import json


def view(nodes, edges=()):
    return ArchView(frozenset(nodes), frozenset(edges))


def machine(transitions, initial=0, name=None):
    states = {initial}
    for (s, _sym), (t, _f) in transitions.items():
        states |= {s, t}
    return StateMachine(frozenset(states), initial, transitions, name=name)


def model_doc(services=(), externals=(), flows=()):
    return json.dumps(
        {
            "services": [{"name": n} for n in services],
            "external_entities": [{"name": n} for n in externals],
            "information_flows": [{"sender": s, "receiver": r} for s, r in flows],
        }
    )


class TestStaticView:
    def test_basic(self):
        m = parse_static_model(model_doc(services=["order", "catalog"], flows=[("order", "catalog")]))
        v = extract_static_view(m)
        assert v.nodes == {"order", "catalog"}
        assert v.edges == {("order", "catalog")}

    def test_externals_excluded_by_default(self):
        m = parse_static_model(
            model_doc(services=["gw"], externals=["user"], flows=[("user", "gw")])
        )
        v = extract_static_view(m, include_externals=False)
        assert v.nodes == {"gw"}
        assert v.edges == set()
        v2 = extract_static_view(m, include_externals=True)
        assert v2.nodes == {"gw", "user"}
        assert v2.edges == {("user", "gw")}

    def test_empty(self):
        m = parse_static_model("{}")
        v = extract_static_view(m)
        assert v.nodes == frozenset() and v.edges == frozenset()


class TestDynamicView:
    def test_single_transition(self):
        sm = machine({(0, "a→b:GET /x"): (1, 1)})
        v = extract_dynamic_view([sm])
        assert v.nodes == {"a", "b"}
        assert v.edges == {("a", "b")}

    def test_union_dedup(self):
        sm1 = machine({(0, "a→b:GET /x"): (1, 1)})
        sm2 = machine({(0, "a→b:GET /x"): (1, 3), (1, "b→c:GET /y"): (0, 1)})
        v = extract_dynamic_view([sm1, sm2])
        assert v.edges == {("a", "b"), ("b", "c")}


def brute_force_detect(static_view, dynamic_view):
    """Independent oracle: naive double-loop membership scan."""
    ncs = []
    for name in dynamic_view.nodes:
        if not any(name == other for other in static_view.nodes):
            ncs.append(("static", "node", (name,)))
    for name in static_view.nodes:
        if not any(name == other for other in dynamic_view.nodes):
            ncs.append(("dynamic", "node", (name,)))
    for edge in dynamic_view.edges:
        if not any(edge == other for other in static_view.edges):
            ncs.append(("static", "edge", edge))
    for edge in static_view.edges:
        if not any(edge == other for other in dynamic_view.edges):
            ncs.append(("dynamic", "edge", edge))
    ncs.sort(key=lambda n: (n[0] != "static", n[1] != "node", n[2]))
    return ncs


def random_view(rng: random.Random):
    nodes = {f"n{i}" for i in range(rng.randint(0, 6))}
    pairs = [(a, b) for a in nodes for b in nodes]
    edges = set(rng.sample(pairs, rng.randint(0, len(pairs)))) if pairs else set()
    return view(nodes, edges)


class TestDetect:
    def test_example(self):
        static = view({"A", "B"}, {("A", "B")})
        dynamic = view({"A", "B", "C"}, {("A", "B"), ("B", "C")})
        _tv, ncs = detect(static, dynamic)
        assert [(n.kind, n.subject_type, n.names) for n in ncs] == [
            (NcKind.Static, "node", ("C",)),
            (NcKind.Static, "edge", ("B", "C")),
        ]

    def test_identical_views(self):
        v = view({"a", "b"}, {("a", "b")})
        tv, ncs = detect(v, v)
        assert ncs == []
        assert all(t is PresenceTag.Both for t in tv.nodes.values())
        assert all(t is PresenceTag.Both for t in tv.edges.values())

    def test_self_identity_random(self):
        rng = random.Random(55)
        for _ in range(50):
            v = random_view(rng)
            assert detect(v, v)[1] == []

    def test_symmetry(self):
        rng = random.Random(66)
        swap = {NcKind.Static: NcKind.Dynamic, NcKind.Dynamic: NcKind.Static}
        for _ in range(100):
            a, b = random_view(rng), random_view(rng)
            _tva, ncs_ab = detect(a, b)
            _tvb, ncs_ba = detect(b, a)
            swapped = sorted(
                (NonConformance(swap[n.kind], n.subject_type, n.names) for n in ncs_ab),
                key=NonConformance.sort_key,
            )
            assert swapped == ncs_ba

    def test_count_identity(self):
        rng = random.Random(101)
        for _ in range(100):
            a, b = random_view(rng), random_view(rng)
            _tv, ncs = detect(a, b)
            expected = (
                len(a.nodes | b.nodes) + len(a.edges | b.edges)
                - len(a.nodes & b.nodes) - len(a.edges & b.edges)
            )
            assert len(ncs) == expected

    def test_brute_force_oracle(self):
        rng = random.Random(202)
        for _ in range(1000):
            a, b = random_view(rng), random_view(rng)
            _tv, ncs = detect(a, b)
            got = [(n.kind.value, n.subject_type, tuple(n.names)) for n in ncs]
            assert got == brute_force_detect(a, b)

    def test_direction_sensitive(self):
        a = view({"x", "y"}, {("x", "y")})
        b = view({"x", "y"}, {("y", "x")})
        _tv, ncs = detect(a, b)
        assert len(ncs) == 2

    def test_self_loop_participates(self):
        a = view({"x"}, {("x", "x")})
        b = view({"x"}, set())
        _tv, ncs = detect(a, b)
        assert ncs == [NonConformance(NcKind.Dynamic, "edge", ("x", "x"))]

    def test_stable_ids(self):
        nc = NonConformance(NcKind.Static, "edge", ("a-b", "c"))
        assert nc.id == "static-edge-a-b--c"
        other = NonConformance(NcKind.Static, "edge", ("a", "b-c"))
        assert nc.id != other.id
