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
from typing import NamedTuple

from .errors import InputError, clip, load_json

_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def normalize_name(raw: str) -> str:
    """Lowercase, collapse runs of non-alphanumerics to a single hyphen."""
    name = _NON_ALNUM.sub("-", raw.lower()).strip("-")
    if not name:
        raise InputError(f"name {clip(raw)!r} is empty after normalization")
    return name


class Traceability(NamedTuple):
    file: str
    line: int
    snippet: str | None = None


class ServiceNode(NamedTuple):
    name: str
    stereotypes: tuple[str, ...] = ()
    traceability: Traceability | None = None


class Flow(NamedTuple):
    sender: str
    receiver: str
    stereotypes: tuple[str, ...] = ()
    traceability: Traceability | None = None


class StaticModel(NamedTuple):
    services: tuple[ServiceNode, ...] = ()
    external_entities: tuple[ServiceNode, ...] = ()
    flows: tuple[Flow, ...] = ()


def _list_field(obj: dict, key: str, path: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise InputError(f"{path}{key} must be a list")
    return value


def _require(obj: dict, keys: tuple[str, ...], path: str) -> None:
    for key in keys:
        if key not in obj:
            raise InputError(f"missing required field: {path}.{key}")


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{path} must be a string")
    return value


def _stereotypes(obj: dict, path: str) -> tuple[str, ...]:
    return tuple(_string(s, f"{path}.stereotypes[{i}]")
                 for i, s in enumerate(_list_field(obj, "stereotypes", f"{path}.")))


def _parse_traceability(obj, path: str) -> Traceability | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise InputError(f"{path} must be an object")
    _require(obj, ("file", "line"), path)
    line = obj["line"]
    # type() and not isinstance(): JSON true loads as bool, an int subclass
    if type(line) is not int or line < 1:
        raise InputError(f"{path}.line must be a positive integer")
    snippet = obj.get("snippet")
    if snippet is not None:
        _string(snippet, f"{path}.snippet")
    return Traceability(file=_string(obj["file"], f"{path}.file"), line=line, snippet=snippet)


def _parse_node(obj, path: str) -> ServiceNode:
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected an object")
    _require(obj, ("name",), path)
    return ServiceNode(
        name=normalize_name(_string(obj["name"], f"{path}.name")),
        stereotypes=_stereotypes(obj, path),
        traceability=_parse_traceability(obj.get("traceability"), f"{path}.traceability"),
    )


def parse_static_model(json_text: str) -> StaticModel:
    """Parse and validate the static model JSON document."""
    doc = load_json(json_text, lambda exc: InputError(
        "static model is nested too deeply" if isinstance(exc, RecursionError)
        else f"static model is not valid JSON: {exc}"))
    if not isinstance(doc, dict):
        raise InputError("static model document must be a JSON object")

    services = tuple(
        _parse_node(obj, f"services[{i}]")
        for i, obj in enumerate(_list_field(doc, "services", ""))
    )
    externals = tuple(
        _parse_node(obj, f"external_entities[{i}]")
        for i, obj in enumerate(_list_field(doc, "external_entities", ""))
    )

    seen: set[str] = set()
    for node in services + externals:
        if node.name in seen:
            raise InputError(f"duplicate service after normalization: {clip(node.name)!r}")
        seen.add(node.name)

    flows = []
    for i, obj in enumerate(_list_field(doc, "information_flows", "")):
        path = f"information_flows[{i}]"
        if not isinstance(obj, dict):
            raise InputError(f"{path}: expected an object")
        _require(obj, ("sender", "receiver"), path)
        sender, receiver = (normalize_name(_string(obj[key], f"{path}.{key}"))
                            for key in ("sender", "receiver"))
        for name in (sender, receiver):
            if name not in seen:
                raise InputError(f"flow #{i}: endpoint {clip(name)!r} is not a declared service")
        stereotypes = _stereotypes(obj, path)
        if sender == receiver and "self-call" not in stereotypes:
            raise InputError(f"{path}: self-flow without 'self-call' stereotype")
        flows.append(
            Flow(
                sender=sender,
                receiver=receiver,
                stereotypes=stereotypes,
                traceability=_parse_traceability(obj.get("traceability"), f"{path}.traceability"),
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
