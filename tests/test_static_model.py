"""Static model parsing, normalization, and round-trip tests."""

import json
import random
import re

import pytest
from hypothesis import given, strategies as st

from msaconform.errors import InputError
from msaconform.static_model import (
    Flow,
    ServiceNode,
    StaticModel,
    Traceability,
    normalize_name,
    parse_static_model,
    serialize_static_model,
)


def doc(services=(), externals=(), flows=()):
    return json.dumps(
        {
            "services": [{"name": n, "stereotypes": []} for n in services],
            "external_entities": [{"name": n, "stereotypes": []} for n in externals],
            "information_flows": [
                {"sender": s, "receiver": r, "stereotypes": []} for s, r in flows
            ],
        }
    )


class TestNormalizeName:
    def test_spaces_become_hyphens(self):
        assert normalize_name("Order Service") == "order-service"

    def test_identity(self):
        assert normalize_name("catalog") == "catalog"

    def test_runs_collapse_and_strip(self):
        assert normalize_name("__API__Gateway__") == "api-gateway"

    def test_empty_after_normalization(self):
        with pytest.raises(InputError, match="^name '___' is empty after normalization$"):
            normalize_name("___")

    @given(st.text(min_size=1).filter(lambda s: any(c.isalnum() and c.isascii() for c in s)))
    def test_idempotent(self, raw):
        once = normalize_name(raw)
        assert normalize_name(once) == once

    def test_never_contains_double_hyphen(self):
        assert "--" not in normalize_name("a!!!b###c")


class TestParse:
    def test_basic_document(self):
        m = parse_static_model(doc(services=["order", "catalog"], flows=[("order", "catalog")]))
        assert len(m.services) == 2
        assert len(m.flows) == 1
        assert m.flows[0] == Flow(sender="order", receiver="catalog")

    def test_undeclared_receiver(self):
        with pytest.raises(InputError,
                           match="^flow #0: endpoint 'payment' is not a declared service$"):
            parse_static_model(doc(services=["order"], flows=[("order", "payment")]))

    def test_duplicate_after_normalization(self):
        with pytest.raises(InputError,
                           match="^duplicate service after normalization: 'order-service'$"):
            parse_static_model(doc(services=["Order-Service", "order_service"]))

    def test_malformed_json(self):
        with pytest.raises(InputError, match="^static model is not valid JSON: "):
            parse_static_model("{nope")

    def test_document_must_be_an_object(self):
        with pytest.raises(InputError, match="^static model document must be a JSON object$"):
            parse_static_model("[]")

    def test_service_must_be_an_object(self):
        with pytest.raises(InputError, match=r"^services\[0\]: expected an object$"):
            parse_static_model(json.dumps({"services": ["order"]}))

    def test_flow_must_be_an_object(self):
        text = json.dumps({"services": [{"name": "a"}], "information_flows": [["a", "a"]]})
        with pytest.raises(InputError, match=r"^information_flows\[0\]: expected an object$"):
            parse_static_model(text)

    def test_missing_name(self):
        with pytest.raises(InputError, match=re.escape("missing required field: services[0].name")):
            parse_static_model(json.dumps({"services": [{"stereotypes": []}]}))

    def test_extra_fields_ignored(self):
        text = json.dumps(
            {"services": [{"name": "a", "stereotypes": [], "zzz": 1}], "future": True}
        )
        m = parse_static_model(text)
        assert m.services[0].name == "a"

    def test_self_flow_requires_stereotype(self):
        with pytest.raises(InputError, match=re.escape(
                "information_flows[0]: self-flow without 'self-call' stereotype")):
            parse_static_model(doc(services=["a"], flows=[("a", "a")]))
        ok = json.dumps(
            {
                "services": [{"name": "a"}],
                "information_flows": [
                    {"sender": "a", "receiver": "a", "stereotypes": ["self-call"]}
                ],
            }
        )
        assert parse_static_model(ok).flows[0].sender == "a"

    def test_no_flow_silently_dropped(self):
        flows = [("a", "b"), ("b", "a"), ("a", "b")]
        m = parse_static_model(doc(services=["a", "b"], flows=flows))
        assert len(m.flows) == len(flows)

    def test_traceability_parsed(self):
        text = json.dumps(
            {
                "services": [
                    {"name": "a", "traceability": {"file": "x.py", "line": 3, "snippet": "s"}}
                ]
            }
        )
        m = parse_static_model(text)
        assert m.services[0].traceability == Traceability(file="x.py", line=3, snippet="s")

    def test_traceability_bad_line(self):
        text = json.dumps({"services": [{"name": "a", "traceability": {"file": "x", "line": 0}}]})
        with pytest.raises(InputError, match=re.escape("services[0].traceability.line must be a positive integer")):
            parse_static_model(text)

    @pytest.mark.parametrize("doc, message", [
        ({"services": None}, "services must be a list"),
        ({"services": [], "information_flows": {"sender": "a"}}, "information_flows must be a list"),
        ({"services": [{"name": "a", "stereotypes": 5}]}, "services[0].stereotypes must be a list"),
        ({"services": [{"name": "a", "traceability": {"file": "x", "line": 1, "snippet": [1]}}]},
         "services[0].traceability.snippet must be a string"),
        # JSON true loads as bool, which isinstance(..., int) would take as line 1
        ({"services": [{"name": "a", "traceability": {"file": "x", "line": True}}]},
         "services[0].traceability.line must be a positive integer"),
        ({"services": [{"name": "a", "traceability": ["x", 1]}]},
         "services[0].traceability must be an object"),
        ({"services": [{"name": "a"}],
          "information_flows": [{"sender": "a", "receiver": "a", "stereotypes": ["self-call"],
                                 "traceability": {"line": 1}}]},
         "missing required field: information_flows[0].traceability.file"),
    ])
    def test_wrong_field_types(self, doc, message):
        with pytest.raises(InputError, match=re.escape(message)):
            parse_static_model(json.dumps(doc))

    @pytest.mark.parametrize("doc, message", [
        ({"services": [{"name": None}]}, "services[0].name must be a string"),
        ({"external_entities": [{"name": 7}]}, "external_entities[0].name must be a string"),
        ({"services": [{"name": "a", "stereotypes": ["x", 1]}]},
         "services[0].stereotypes[1] must be a string"),
        ({"services": [{"name": "a", "traceability": {"file": None, "line": 1}}]},
         "services[0].traceability.file must be a string"),
        ({"services": [{"name": "a"}],
          "information_flows": [{"sender": {"A": [1]}, "receiver": "a"}]},
         "information_flows[0].sender must be a string"),
        ({"services": [{"name": "a"}], "information_flows": [{"sender": "a", "receiver": ["a"]}]},
         "information_flows[0].receiver must be a string"),
        ({"services": [{"name": "a"}, {"name": "b"}],
          "information_flows": [{"sender": "a", "receiver": "b", "stereotypes": [None]}]},
         "information_flows[0].stereotypes[0] must be a string"),
    ])
    def test_non_strings_rejected(self, doc, message):
        # str() would turn a null name into the service "none"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse_static_model(json.dumps(doc))

    def test_deeply_nested(self):
        with pytest.raises(InputError, match="nested too deeply"):
            parse_static_model("[" * 100_000)


def random_model(rng: random.Random) -> StaticModel:
    n = rng.randint(1, 8)
    names = [f"svc-{i}" for i in range(n)]
    services = tuple(
        ServiceNode(
            name=name,
            stereotypes=tuple(rng.sample(["internal", "database", "gateway"], rng.randint(0, 2))),
            traceability=(
                Traceability(file=f"{name}.py", line=rng.randint(1, 99))
                if rng.random() < 0.5
                else None
            ),
        )
        for name in names
    )
    externals = tuple(
        ServiceNode(name=f"ext-{i}") for i in range(rng.randint(0, 2))
    )
    all_names = [s.name for s in services] + [e.name for e in externals]
    flows = tuple(
        Flow(sender=rng.choice(all_names), receiver=rng.choice(all_names))
        for _ in range(rng.randint(0, 10))
    )
    flows = tuple(f for f in flows if f.sender != f.receiver)
    return StaticModel(services=services, external_entities=externals, flows=flows)


class TestRoundTrip:
    def test_parse_serialize_identity_seeded(self):
        rng = random.Random(1234)
        for _ in range(100):
            m = random_model(rng)
            assert parse_static_model(serialize_static_model(m)) == m

    def test_serialize_deterministic(self):
        rng = random.Random(5)
        m = random_model(rng)
        assert serialize_static_model(m) == serialize_static_model(m)
