"""Interpretation generation and supporting details for non-conformances.

Interpretations come from a bundled catalog (one per known cause, selected
by non-conformance kind). Details differ by kind: static non-conformances
get the sub-machine showing the unexpected communication plus the most
frequent calls; dynamic non-conformances get a code pointer from the
static model's traceability and the flow sequence expected to trigger the
missing behavior.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from .automaton import StateMachine, canonicalize, reachable_states, transition_frequencies
from .detector import NcKind, NonConformance
from .errors import NoInvolvedTransitions
from .events import parse_symbol
from .static_model import Flow, StaticModel, Traceability


@dataclass(frozen=True)
class Interpretation:
    cause_id: str
    kind: NcKind
    title: str
    body: str
    source: str


@dataclass(frozen=True)
class CallSummary:
    caller: str
    callee: str
    method: str
    path_template: str
    count: int


@dataclass(frozen=True)
class NcDetails:
    """Kind-specific supporting material; exactly one variant is populated."""

    kind: NcKind
    # static kind
    submachine: StateMachine | None = None
    frequent_calls: tuple[CallSummary, ...] = ()
    # dynamic kind
    code_pointer: Traceability | None = None
    trigger_sequence: tuple[Flow, ...] = ()
    call_details: tuple[CallSummary, ...] = ()


def _load_catalog() -> tuple[Interpretation, ...]:
    text = resources.files("msaconform").joinpath("data/interpretations.txt").read_text("utf-8")
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cause_id, kind, title, body, source = (part.strip() for part in line.split("|", 4))
        out.append(
            Interpretation(
                cause_id=cause_id,
                kind=NcKind.Static if kind == "static" else NcKind.Dynamic,
                title=title,
                body=body,
                source=source,
            )
        )
    return tuple(out)


_CATALOG = _load_catalog()


def interpretations_for(kind: NcKind) -> list[Interpretation]:
    """Catalog slice for the given kind, in declaration order."""
    return [entry for entry in _CATALOG if entry.kind == kind]


def _involved_transitions(sm: StateMachine, a: str, b: str) -> list[tuple[int, str, int, int]]:
    out = []
    for (src, sym), (dst, freq) in sm.transitions.items():
        try:
            s, d, _m, _p = parse_symbol(sym)
        except ValueError:
            continue
        if (s, d) == (a, b):
            out.append((src, sym, dst, freq))
    return out


def unexpected_behavior_submachine(sm: StateMachine, a: str, b: str) -> StateMachine:
    """Sub-machine around the transitions whose symbol communicates a→b.

    Keeps the involved transitions plus every transition touching one of
    their endpoint states, re-rooted at the kept state nearest the
    original initial state that still reaches an involved transition.
    States the new root cannot reach within the cut are dropped so the
    result is a valid machine.
    """
    involved = _involved_transitions(sm, a, b)
    if not involved:
        raise NoInvolvedTransitions(a, b)
    core = {src for src, _s, _d, _f in involved} | {dst for _s, _sy, dst, _f in involved}

    kept = {
        (src, sym): (dst, freq)
        for (src, sym), (dst, freq) in sm.transitions.items()
        if src in core or dst in core
    }

    # breadth-first distance from the original initial state
    dist = {sm.initial: 0}
    queue = deque([sm.initial])
    adj: dict[int, list[int]] = {}
    for (src, _sym), (dst, _f) in sm.transitions.items():
        adj.setdefault(src, []).append(dst)
    while queue:
        s = queue.popleft()
        for t in adj.get(s, ()):
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)

    # the root is the state nearest the initial state among those that can
    # still reach an involved transition inside the cut; rooting one hop
    # before the involved states keeps their feeding context visible
    kept_adj: dict[int, list[int]] = {}
    kept_states = set()
    for (src, _sym), (dst, _f) in kept.items():
        kept_adj.setdefault(src, []).append(dst)
        kept_states |= {src, dst}
    involved_sources = {src for src, _s, _d, _f in involved}

    def reaches_involved(start: int) -> bool:
        seen = {start}
        stack = [start]
        while stack:
            s = stack.pop()
            if s in involved_sources:
                return True
            for t in kept_adj.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return False

    candidates = [s for s in kept_states if reaches_involved(s)]
    root = min(candidates, key=lambda s: (dist.get(s, len(sm.states)), s))

    reachable = reachable_states(root, kept)
    transitions = {
        key: val for key, val in kept.items() if key[0] in reachable and val[0] in reachable
    }
    return canonicalize(StateMachine(frozenset(reachable), root, transitions, name=sm.name))


def _top_calls(
    sm: StateMachine, keep: Callable[[str, str], bool], top_n: int
) -> list[CallSummary]:
    """Calls whose (caller, callee) pass ``keep``, by descending count, then by call."""
    grouped: dict[tuple[str, str, str, str], int] = {}
    for sym, freq in transition_frequencies(sm):
        try:
            call = parse_symbol(sym)
        except ValueError:
            continue
        if keep(call[0], call[1]):
            grouped[call] = grouped.get(call, 0) + freq
    ordered = sorted(grouped.items(), key=lambda kv: (-kv[1], kv[0]))
    return [CallSummary(*call, count=c) for call, c in ordered[:top_n]]


def most_frequent_calls(sm: StateMachine, a: str, b: str, top_n: int = 5) -> list[CallSummary]:
    """Top calls a→b, grouped by (method, path template), descending count."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    return _top_calls(sm, lambda src, dst: (src, dst) == (a, b), top_n)


def calls_involving(sm: StateMachine, service: str, top_n: int = 5) -> list[CallSummary]:
    """Top calls where the service is caller or callee (node-level details)."""
    return _top_calls(sm, lambda src, dst: service in (src, dst), top_n)


def _entry_nodes(model: StaticModel) -> list[str]:
    if model.external_entities:
        return sorted(e.name for e in model.external_entities)
    receivers = {f.receiver for f in model.flows}
    return sorted(s.name for s in model.services if s.name not in receivers)


def _shortest_flow_path(model: StaticModel, target: str) -> list[Flow]:
    """Lexicographically least shortest path from any entry node to target."""
    entries = _entry_nodes(model)
    if target in entries:
        return []
    succ: dict[str, list[str]] = {}
    for f in model.flows:
        succ.setdefault(f.sender, []).append(f.receiver)

    # distance from each node to the target, over reversed edges
    pred: dict[str, list[str]] = {}
    for f in model.flows:
        pred.setdefault(f.receiver, []).append(f.sender)
    rdist = {target: 0}
    queue = deque([target])
    while queue:
        n = queue.popleft()
        for p in pred.get(n, ()):
            if p not in rdist:
                rdist[p] = rdist[n] + 1
                queue.append(p)

    candidates = [e for e in entries if e in rdist]
    if not candidates:
        return []
    best = min(rdist[e] for e in candidates)
    start = min(e for e in candidates if rdist[e] == best)

    path_nodes = [start]
    node = start
    while node != target:
        node = min(w for w in succ.get(node, ()) if rdist.get(w) == rdist[node] - 1)
        path_nodes.append(node)
    flows = []
    for s, r in zip(path_nodes, path_nodes[1:]):
        flow = model.flow(s, r)
        assert flow is not None
        flows.append(flow)
    return flows


def _call_summary_from_flow(flow: Flow) -> CallSummary | None:
    for stereo in flow.stereotypes:
        method, _, path = stereo.partition(" ")
        if method.isupper() and path.startswith("/"):
            return CallSummary(
                caller=flow.sender, callee=flow.receiver, method=method,
                path_template=path, count=1,
            )
    return None


def dynamic_nc_details(model: StaticModel, nc: NonConformance) -> NcDetails:
    """Code pointer, expected trigger sequence, and call details.

    Absent traceability or an unreachable trigger path degrade to empty
    fields; the renderer reports the absence.
    """
    if nc.kind is not NcKind.Dynamic:
        raise ValueError("dynamic_nc_details requires a dynamic non-conformance")

    if nc.subject_type == "edge":
        sender, receiver = nc.names
        missing = model.flow(sender, receiver)
        code_pointer = missing.traceability if missing else None
        prefix = _shortest_flow_path(model, sender)
        trigger = tuple(prefix) + ((missing,) if missing else ())
    else:
        (name,) = nc.names
        node = model.node(name)
        code_pointer = node.traceability if node else None
        trigger = tuple(_shortest_flow_path(model, name))

    call_details = tuple(
        s for s in (_call_summary_from_flow(f) for f in trigger) if s is not None
    )
    return NcDetails(
        kind=NcKind.Dynamic,
        code_pointer=code_pointer,
        trigger_sequence=trigger,
        call_details=call_details,
    )


def static_nc_details(sm: StateMachine | None, nc: NonConformance, top_n: int = 5) -> NcDetails:
    """Sub-machine plus frequent calls for a static non-conformance."""
    if nc.kind is not NcKind.Static:
        raise ValueError("static_nc_details requires a static non-conformance")
    if sm is None:
        return NcDetails(kind=NcKind.Static)
    if nc.subject_type == "edge":
        a, b = nc.names
        try:
            sub = unexpected_behavior_submachine(sm, a, b)
        except NoInvolvedTransitions:
            sub = None
        calls = tuple(most_frequent_calls(sm, a, b, top_n=top_n))
    else:
        (name,) = nc.names
        sub = None
        calls = tuple(calls_involving(sm, name, top_n=top_n))
    return NcDetails(kind=NcKind.Static, submachine=sub, frequent_calls=calls)
