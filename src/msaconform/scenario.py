"""Synthetic microservice scenario generator with ground-truth fault injection.

A scenario is a random weakly-connected directed service graph. The
emitted static model omits some true edges (they will surface only at
runtime: static non-conformances) and adds some extra edges that are
never exercised in the log (dynamic non-conformances). The event log
exercises every true edge at least three times, in sessions whose
internal gaps stay below the default sessionization threshold.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from typing import NamedTuple

from .detector import NcKind, NonConformance
from .errors import InputError, load_json
from .static_model import Flow, ServiceNode, StaticModel, Traceability

_METHODS = ("GET", "POST", "PUT", "DELETE")

_INTRA_SESSION_GAP_MS = 10
_INTER_SESSION_GAP_MS = 5_000


class ScenarioSpec(namedtuple(
        "ScenarioSpec",
        ("n_services", "n_edges",  # required: the defaults are the other four's
         "n_injected_static_nc", "n_injected_dynamic_nc", "n_events", "rng_seed"),
        defaults=(0, 0, 1000, 0))):
    """A scenario's integer settings, checked when made: one that cannot be
    generated is an InputError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_services < 1 or self.n_events < 1:
            raise InputError("n_services and n_events must be positive")
        if self.n_edges > self.n_services * (self.n_services - 1):
            raise InputError("n_edges exceeds the simple directed graph maximum")
        if self.n_injected_static_nc > self.n_edges or self.n_injected_dynamic_nc > self.n_edges:
            raise InputError("injected counts must not exceed n_edges")
        if self.n_injected_static_nc < 0 or self.n_injected_dynamic_nc < 0:
            raise InputError("injected counts must not be negative")
        if self.n_services < 2 or self.n_edges < 1:
            raise InputError("need at least 2 services and 1 edge")
        if self.n_edges < self.n_services - 1:
            raise InputError("too few edges for a connected graph")
        free_slots = self.n_services * (self.n_services - 1) - self.n_edges
        if self.n_injected_dynamic_nc > free_slots:
            raise InputError("not enough free node pairs for the extra static-only edges")
        if self.n_events < 3 * self.n_edges:
            raise InputError("n_events must allow every edge to appear at least 3 times")
        return self

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec document; bad JSON, a missing key, a non-integer value
        or a spec that cannot be generated is an InputError."""
        doc = load_json(text, lambda exc: InputError(f"scenario spec is not valid JSON: {exc}"))
        if not isinstance(doc, dict):
            raise InputError("scenario spec must be a JSON object")
        values = {}
        for name in cls._fields:
            if name not in doc:
                if name not in cls._field_defaults:
                    raise InputError(f"scenario spec: missing key {name!r}")
                continue
            value = doc[name]
            # type() and not isinstance(): JSON true/false load as bool, an int subclass
            if type(value) is not int:
                raise InputError(f"scenario spec: {name} must be an integer")
            values[name] = value
        return cls(**values)


class GroundTruth(NamedTuple):
    expected: tuple[NonConformance, ...]

    def to_json(self) -> str:
        return json.dumps(
            [
                {"kind": nc.kind.value, "subject": nc.subject_type, "names": list(nc.names)}
                for nc in self.expected
            ],
            indent=2,
        ) + "\n"


def _service_name(i: int) -> str:
    return f"svc-{i:02d}"


def _random_connected_edges(n: int, n_edges: int, rng: random.Random) -> list[tuple[str, str]]:
    names = [_service_name(i) for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    edges: set[tuple[str, str]] = set()
    for i in range(1, n):
        other = order[rng.randrange(i)]
        edge = (other, order[i]) if rng.random() < 0.5 else (order[i], other)
        edges.add(edge)
    candidates = [
        (a, b) for a in names for b in names if a != b and (a, b) not in edges
    ]
    rng.shuffle(candidates)
    while len(edges) < n_edges:
        edges.add(candidates.pop())
    return sorted(edges)


def generate(spec: ScenarioSpec) -> tuple[StaticModel, str, GroundTruth]:
    """Build (static model, event log text, ground truth) for the spec."""
    rng = random.Random(spec.rng_seed)
    true_edges = _random_connected_edges(spec.n_services, spec.n_edges, rng)

    omitted = sorted(rng.sample(true_edges, spec.n_injected_static_nc))
    names = [_service_name(i) for i in range(spec.n_services)]
    true_set = set(true_edges)
    non_edges = sorted(
        (a, b)
        for a in names
        for b in names
        if a != b and (a, b) not in true_set
    )
    extra = sorted(rng.sample(non_edges, spec.n_injected_dynamic_nc))

    calls = {
        edge: (rng.choice(_METHODS), f"/{edge[1]}/op{i}")
        for i, edge in enumerate(true_edges)
    }

    services = tuple(
        ServiceNode(
            name=name,
            stereotypes=("internal",),
            traceability=Traceability(file=f"services/{name}/app.py", line=1 + i),
        )
        for i, name in enumerate(names)
    )
    static_edges = sorted((true_set - set(omitted)) | set(extra))
    flows = []
    for i, (sender, receiver) in enumerate(static_edges):
        method, path = calls.get((sender, receiver), ("GET", f"/{receiver}/planned{i}"))
        flows.append(
            Flow(
                sender=sender,
                receiver=receiver,
                stereotypes=(f"{method} {path}",),
                traceability=Traceability(
                    file=f"services/{sender}/client.py",
                    line=10 + i,
                    snippet=f'call("{method}", "{path}")',
                ),
            )
        )
    model = StaticModel(services=services, flows=tuple(flows))

    # a handful of fixed session orderings keeps the trace set repetitive,
    # so the prefix tree stays small regardless of the learner settings
    patterns = []
    for _ in range(3):
        p = true_edges[:]
        rng.shuffle(p)
        patterns.append(p)

    log_lines = []
    ts = 1_000_000
    emitted = 0
    pattern_no = 0
    while emitted < spec.n_events:
        pattern = patterns[pattern_no % len(patterns)]
        pattern_no += 1
        for sender, receiver in pattern:
            if emitted >= spec.n_events:
                break
            method, path = calls[(sender, receiver)]
            log_lines.append(
                json.dumps(
                    {
                        "ts": ts,
                        "src": sender,
                        "dst": receiver,
                        "method": method,
                        "path": path,
                        "status": 200,
                    }
                )
            )
            ts += _INTRA_SESSION_GAP_MS
            emitted += 1
        ts += _INTER_SESSION_GAP_MS

    expected = [NonConformance(NcKind.Static, "edge", e) for e in omitted]
    expected += [NonConformance(NcKind.Dynamic, "edge", e) for e in extra]
    # every service keeps at least one true (exercised) edge from the
    # connectivity skeleton and stays declared statically, so no induced
    # node-level non-conformances arise
    expected.sort(key=NonConformance.sort_key)
    return model, "\n".join(log_lines) + "\n", GroundTruth(expected=tuple(expected))
