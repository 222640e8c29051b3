"""Static architecture model: services, external entities, and information flows.

The JSON input format (exact field names)::

    {"services": [{"name": str, "stereotypes": [str],
                   "traceability": {"file": str, "line": int, "snippet": str?}?}],
     "external_entities": [...same...],
     "information_flows": [{"sender": str, "receiver": str,
                            "stereotypes": [str], "traceability": {...}?}]}

Unknown extra fields are ignored without error.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import (
    DuplicateService,
    EmptyAfterNormalization,
    MalformedJson,
    MissingField,
    UnknownEndpoint,
)

_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def normalize_name(raw: str) -> str:
    """Lowercase, collapse runs of non-alphanumerics to a single hyphen."""
    name = _NON_ALNUM.sub("-", raw.lower()).strip("-")
    if not name:
        raise EmptyAfterNormalization(raw)
    return name


@dataclass(frozen=True)
class Traceability:
    file: str
    line: int
    snippet: str | None = None

    def __post_init__(self):
        if self.line < 1:
            raise MalformedJson(f"traceability line must be >= 1, got {self.line}")


@dataclass(frozen=True)
class ServiceNode:
    name: str
    stereotypes: tuple[str, ...] = ()
    is_external: bool = False
    traceability: Traceability | None = None


@dataclass(frozen=True)
class Flow:
    sender: str
    receiver: str
    stereotypes: tuple[str, ...] = ()
    traceability: Traceability | None = None


@dataclass(frozen=True)
class StaticModel:
    services: tuple[ServiceNode, ...] = ()
    external_entities: tuple[ServiceNode, ...] = ()
    flows: tuple[Flow, ...] = ()

    def node(self, name: str) -> ServiceNode | None:
        for n in self.services + self.external_entities:
            if n.name == name:
                return n
        return None

    def flow(self, sender: str, receiver: str) -> Flow | None:
        for f in self.flows:
            if f.sender == sender and f.receiver == receiver:
                return f
        return None


def _parse_traceability(obj, path: str) -> Traceability | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise MalformedJson(f"{path}: traceability must be an object")
    for key in ("file", "line"):
        if key not in obj:
            raise MissingField(f"{path}.{key}")
    line = obj["line"]
    if not isinstance(line, int) or line < 1:
        raise MalformedJson(f"{path}.line must be a positive integer")
    return Traceability(file=str(obj["file"]), line=line, snippet=obj.get("snippet"))


def _parse_node(obj, path: str, is_external: bool) -> ServiceNode:
    if not isinstance(obj, dict):
        raise MalformedJson(f"{path}: expected an object")
    if "name" not in obj:
        raise MissingField(f"{path}.name")
    return ServiceNode(
        name=normalize_name(str(obj["name"])),
        stereotypes=tuple(str(s) for s in obj.get("stereotypes", [])),
        is_external=is_external,
        traceability=_parse_traceability(obj.get("traceability"), path),
    )


def parse_static_model(json_text: str) -> StaticModel:
    """Parse and validate the static model JSON document."""
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"static model is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedJson("static model document must be a JSON object")

    services = tuple(
        _parse_node(obj, f"services[{i}]", is_external=False)
        for i, obj in enumerate(doc.get("services", []))
    )
    externals = tuple(
        _parse_node(obj, f"external_entities[{i}]", is_external=True)
        for i, obj in enumerate(doc.get("external_entities", []))
    )

    seen: set[str] = set()
    for node in services + externals:
        if node.name in seen:
            raise DuplicateService(node.name)
        seen.add(node.name)

    flows = []
    for i, obj in enumerate(doc.get("information_flows", [])):
        path = f"information_flows[{i}]"
        if not isinstance(obj, dict):
            raise MalformedJson(f"{path}: expected an object")
        for key in ("sender", "receiver"):
            if key not in obj:
                raise MissingField(f"{path}.{key}")
        sender = normalize_name(str(obj["sender"]))
        receiver = normalize_name(str(obj["receiver"]))
        if sender not in seen:
            raise UnknownEndpoint(i, sender)
        if receiver not in seen:
            raise UnknownEndpoint(i, receiver)
        stereotypes = tuple(str(s) for s in obj.get("stereotypes", []))
        if sender == receiver and "self-call" not in stereotypes:
            raise MalformedJson(f"{path}: self-flow without 'self-call' stereotype")
        flows.append(
            Flow(
                sender=sender,
                receiver=receiver,
                stereotypes=stereotypes,
                traceability=_parse_traceability(obj.get("traceability"), path),
            )
        )
    return StaticModel(services=services, external_entities=externals, flows=tuple(flows))


def _with_traceability(out: dict, trace: Traceability | None) -> dict:
    if trace is not None:
        t: dict = {"file": trace.file, "line": trace.line}
        if trace.snippet is not None:
            t["snippet"] = trace.snippet
        out["traceability"] = t
    return out


def _node_dict(node: ServiceNode) -> dict:
    return _with_traceability(
        {"name": node.name, "stereotypes": list(node.stereotypes)}, node.traceability
    )


def serialize_static_model(model: StaticModel) -> str:
    """Canonical JSON form: sorted keys, stable field order, LF-terminated."""
    doc = {
        "services": [_node_dict(n) for n in model.services],
        "external_entities": [_node_dict(n) for n in model.external_entities],
        "information_flows": [
            _with_traceability(
                {"sender": f.sender, "receiver": f.receiver, "stereotypes": list(f.stereotypes)},
                f.traceability,
            )
            for f in model.flows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False, ensure_ascii=False) + "\n"
