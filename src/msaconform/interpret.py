"""Interpretation generation and supporting details for non-conformances.

Interpretations come from a bundled catalog (one per known cause, selected
by non-conformance kind). Details differ by kind: static non-conformances
get the sub-machine showing the unexpected communication plus the most
frequent calls; dynamic non-conformances get a code pointer from the
static model's traceability and the flow sequence expected to trigger the
missing behavior. ``finding_details`` builds the details of every finding,
choosing for each static one the machine that holds its subject.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from importlib import resources
from operator import itemgetter

from .automaton import StateMachine, breadth_first, canonicalize, reachable_states
from .detector import NcKind, NonConformance
from .events import GLOBAL_SCOPE, parse_symbol
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


_source = itemgetter(0)  # of a transition key (state, symbol)


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


class CallIndex:
    """One machine's transitions indexed for static-finding details.

    Built in one pass over the transitions that parses each distinct symbol
    once, plus two sorts; after that, a sub-machine or a call list costs in
    proportion to the finding's neighbourhood, not to the machine. It holds
    the machine's own ``(state, symbol)`` keys.
    """

    def __init__(self, sm: StateMachine):
        self.machine = sm
        transitions = sm.transitions
        # transition keys per communication (caller, callee)
        self.involved: dict[tuple[str, str], list[tuple[int, str]]] = {}
        calls: dict[str, tuple[str, str, str, str]] = {}
        totals: dict[tuple[str, str, str, str], int] = {}
        for key, (_dst, freq) in transitions.items():
            call = calls.get(key[1])
            if call is None:
                call = calls[key[1]] = parse_symbol(key[1])
            self.involved.setdefault(call[:2], []).append(key)
            totals[call] = totals.get(call, 0) + freq

        # calls by descending count, then by call; each bucket keeps that order
        self.calls_by_pair: dict[tuple[str, str], list[CallSummary]] = {}
        self.calls_by_service: dict[str, list[CallSummary]] = {}
        for call, count in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])):
            summary = CallSummary(*call, count=count)
            caller, callee = call[0], call[1]
            self.calls_by_pair.setdefault((caller, callee), []).append(summary)
            self.calls_by_service.setdefault(caller, []).append(summary)
            if callee != caller:
                self.calls_by_service.setdefault(callee, []).append(summary)

        # transition keys sorted by source and by target state: the keys that
        # leave or enter a state are a slice of each, found by bisection (on
        # the key itself for the source, on a parallel list for the target).
        # Flat lists take a fraction of the memory of one list per state.
        self._by_source = sorted(transitions, key=_source)
        self._by_target = sorted(transitions, key=lambda key: transitions[key][0])
        self._targets = [transitions[key][0] for key in self._by_target]

        self.dist = reachable_states(sm.initial, transitions)

    def _leaving(self, state: int) -> list[tuple[int, str]]:
        keys = self._by_source
        return keys[bisect_left(keys, state, key=_source):bisect_right(keys, state, key=_source)]

    def _entering(self, state: int) -> list[tuple[int, str]]:
        targets = self._targets
        return self._by_target[bisect_left(targets, state):bisect_right(targets, state)]

    def submachine(self, a: str, b: str) -> StateMachine | None:
        """Sub-machine around the transitions whose symbol communicates a→b.

        Keeps the involved transitions plus every transition touching one of
        their endpoint states, re-rooted at the kept state nearest the
        original initial state that still reaches an involved transition.
        States the new root cannot reach within the cut are dropped so the
        result is a valid machine. ``None`` if no transition communicates a→b.
        """
        involved = self.involved.get((a, b))
        if not involved:
            return None
        transitions = self.machine.transitions
        involved_sources = {src for src, _sym in involved}
        core = involved_sources | {transitions[key][0] for key in involved}
        kept = {
            key: transitions[key]
            for state in core
            for key in (*self._leaving(state), *self._entering(state))
        }

        # the root is the state nearest the initial state among those that can
        # still reach an involved transition inside the cut; rooting one hop
        # before the involved states keeps their feeding context visible
        preds: dict[int, list[int]] = {}
        for (src, _sym), (dst, _f) in kept.items():
            preds.setdefault(dst, []).append(src)
        reaching = breadth_first(involved_sources, preds)
        root = min(reaching, key=lambda s: (self.dist[s], s))
        return canonicalize(root, kept, name=self.machine.name)


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
    rdist = breadth_first([target], pred)

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


def static_nc_details(sm: CallIndex | None, nc: NonConformance, top_n: int) -> NcDetails:
    """Sub-machine plus frequent calls for a static non-conformance, taken from
    ``sm``, the call index of a machine that holds its subject, if any."""
    if nc.kind is not NcKind.Static:
        raise ValueError("static_nc_details requires a static non-conformance")
    if sm is None:
        return NcDetails(kind=NcKind.Static)
    if nc.subject_type == "edge":
        a, b = nc.names
        sub = sm.submachine(a, b)
        calls = tuple(sm.calls_by_pair.get((a, b), [])[:top_n])
    else:
        (name,) = nc.names
        sub = None
        calls = tuple(sm.calls_by_service.get(name, [])[:top_n])
    return NcDetails(kind=NcKind.Static, submachine=sub, frequent_calls=calls)


def finding_details(
    machines: dict[str, StateMachine], model: StaticModel, ncs: list[NonConformance], top_n: int
) -> dict[str, NcDetails]:
    """Details per finding id. A static finding's come from the global machine
    if it holds the subject, else from the lowest-named machine that does; a
    dynamic finding's from the static model. The call indexes die with this
    call, before rendering."""
    indexes: dict[tuple[str, ...], CallIndex] = {}  # per edge (src, dst) and service (name,)
    for scope in sorted(machines, key=lambda name: (name != GLOBAL_SCOPE, name)):
        index = CallIndex(machines[scope])
        for subject in [*index.calls_by_pair, *((name,) for name in index.calls_by_service)]:
            indexes.setdefault(subject, index)
    return {nc.id: static_nc_details(indexes.get(nc.names), nc, top_n=top_n)
            if nc.kind is NcKind.Static else dynamic_nc_details(model, nc)
            for nc in ncs}
