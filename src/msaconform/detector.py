"""Architecture view extraction and non-conformance detection.

A view is the normalized (nodes, directed edges) pair obtained from either
model kind. Detection tags each node/edge of the union by presence and
emits one non-conformance per item that is not present in both views:

* static non-conformance — observed at runtime, missing from the static
  model (item tagged DynamicOnly);
* dynamic non-conformance — declared statically, never observed at
  runtime (item tagged StaticOnly).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .automaton import StateMachine
from .events import parse_symbol
from .static_model import StaticModel


class PresenceTag(Enum):
    Both = "both"
    StaticOnly = "static-only"
    DynamicOnly = "dynamic-only"


class NcKind(Enum):
    Static = "static"
    Dynamic = "dynamic"


@dataclass(frozen=True)
class ArchView:
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class TaggedView:
    nodes: dict[str, PresenceTag]
    edges: dict[tuple[str, str], PresenceTag]


@dataclass(frozen=True)
class NonConformance:
    kind: NcKind
    subject_type: str  # "node" | "edge"
    names: tuple[str, ...]

    @property
    def id(self) -> str:
        # names never contain "--" (normalization collapses runs), so the
        # double-hyphen joiner is unambiguous
        return f"{self.kind.value}-{self.subject_type}-" + "--".join(self.names)

    def sort_key(self) -> tuple:
        return (
            0 if self.kind is NcKind.Static else 1,
            0 if self.subject_type == "node" else 1,
            self.names,
        )


# the finding an item raises, by its presence tag; an item in both views raises none
_FINDING_KIND = {PresenceTag.DynamicOnly: NcKind.Static, PresenceTag.StaticOnly: NcKind.Dynamic}


def extract_static_view(model: StaticModel, include_externals: bool = False) -> ArchView:
    """Nodes and edges of the dataflow diagram."""
    nodes = {s.name for s in model.services}
    if include_externals:
        nodes |= {e.name for e in model.external_entities}
    edges = {
        (f.sender, f.receiver)
        for f in model.flows
        if f.sender in nodes and f.receiver in nodes
    }
    return ArchView(frozenset(nodes), frozenset(edges))


def extract_dynamic_view(machines: list[StateMachine]) -> ArchView:
    """Union of the communication pairs appearing in transition symbols."""
    edges: set[tuple[str, str]] = set()
    for sm in machines:
        for symbol in dict.fromkeys(symbol for _state, symbol in sm.transitions):
            edges.add(parse_symbol(symbol)[:2])
    return ArchView(frozenset(name for edge in edges for name in edge), frozenset(edges))


def detect(static_view: ArchView, dynamic_view: ArchView) -> tuple[TaggedView, list[NonConformance]]:
    """Tag the union of both views and list every non-Both item."""

    def tag(in_static: bool, in_dynamic: bool) -> PresenceTag:
        if in_static and in_dynamic:
            return PresenceTag.Both
        return PresenceTag.StaticOnly if in_static else PresenceTag.DynamicOnly

    nodes = {
        name: tag(name in static_view.nodes, name in dynamic_view.nodes)
        for name in sorted(static_view.nodes | dynamic_view.nodes)
    }
    edges = {
        edge: tag(edge in static_view.edges, edge in dynamic_view.edges)
        for edge in sorted(static_view.edges | dynamic_view.edges)
    }

    ncs = [NonConformance(_FINDING_KIND[t], "node", (name,))
           for name, t in nodes.items() if t in _FINDING_KIND]
    ncs += [NonConformance(_FINDING_KIND[t], "edge", edge)
            for edge, t in edges.items() if t in _FINDING_KIND]
    ncs.sort(key=NonConformance.sort_key)
    return TaggedView(nodes=nodes, edges=edges), ncs
