"""Interpretation generation and supporting details for non-conformances.

Interpretations come from a bundled catalog (one per known cause, selected
by non-conformance kind). Details differ by kind: static non-conformances
get the sub-machine showing the unexpected communication plus the most
frequent calls; dynamic non-conformances get a code pointer from the
static model's traceability and the flow sequence expected to trigger the
missing behavior. ``finding_details`` makes the details of every finding,
one at a time as the report asks for them, choosing for each static one the
machine that holds its subject.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from importlib import resources
from itertools import repeat
from operator import attrgetter
from typing import Container, Iterator, NamedTuple

from .automaton import Runs, StateMachine, _source, breadth_first, canonicalize, reachable_states
from .detector import NcKind, NonConformance
from .events import parse_symbol, scope_order, unsigned_typecode
from .static_model import Flow, ServiceNode, StaticModel, Traceability


class Interpretation(NamedTuple):
    cause_id: str
    kind: NcKind
    title: str
    body: str
    source: str


class CallSummary(NamedTuple):
    caller: str
    callee: str
    method: str
    path_template: str
    count: int


class NcDetails:
    """Kind-specific supporting material; exactly one variant is populated:
    ``submachine`` and ``frequent_calls`` for a static finding, the other
    three for a dynamic one. A finding's details can be weakly referenced."""

    __slots__ = ("kind", "submachine", "frequent_calls", "code_pointer", "trigger_sequence",
                 "call_details", "__weakref__")

    def __init__(self, kind: NcKind, submachine: StateMachine | None = None,
                 frequent_calls: tuple[CallSummary, ...] = (),
                 code_pointer: Traceability | None = None,
                 trigger_sequence: tuple[Flow, ...] = (),
                 call_details: tuple[CallSummary, ...] = ()):
        self.kind = kind
        self.submachine = submachine
        self.frequent_calls = frequent_calls
        self.code_pointer = code_pointer
        self.trigger_sequence = trigger_sequence
        self.call_details = call_details


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
    once, plus two sorts and a breadth-first walk that finds each state's
    successors by bisection, so that no list is made per state; after that,
    a sub-machine or a call list costs in proportion to the finding's
    neighbourhood, not to the machine. It holds the machine's own
    ``(state, symbol)`` keys, and the involved keys only of the pairs among
    ``subjects``, the findings' subjects it serves. No map is kept per state: a
    state's breadth-first distance from the initial state is kept beside
    each key that leaves it, in a flat array in source order, since a
    sub-machine's root is always a transition source.
    """

    def __init__(self, sm: StateMachine, subjects: Container[tuple[str, ...]]):
        self.machine = sm
        transitions = sm.transitions
        # transition keys per communication (caller, callee) among the subjects
        self.involved: dict[tuple[str, str], list[tuple[int, str]]] = {}
        calls: dict[str, tuple[str, str, str, str]] = {}
        totals: dict[tuple[str, str, str, str], int] = {}
        for key, (_dst, freq) in transitions.items():
            call = calls.get(key[1])
            if call is None:
                call = calls[key[1]] = parse_symbol(key[1])
            if call[:2] in subjects:
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
        # leave or enter a state are a slice of each. Flat lists take a
        # fraction of the memory of one list per state.
        self._by_source = sorted(transitions, key=_source)
        # a source's depth is less than the number of transitions, which marks
        # a source the initial state does not reach. The walk's lists and map
        # die before the target sort, so that they are never alive beside it.
        n = len(self._by_source)
        dist = reachable_states(sm.initial, transitions, self._by_source)
        self._depth = array(unsigned_typecode(n),
                            map(dist.get, map(_source, self._by_source), repeat(n)))
        del dist
        by_target = sorted(transitions, key=lambda key: transitions[key][0])
        self._entering = Runs([transitions[key][0] for key in by_target], by_target)

    def _leaving(self, state: int) -> list[tuple[int, str]]:
        """The keys that leave ``state``, a run of the keys in source order:
        ``(state,)`` sorts before each key of the run and ``(state + 1,)``
        after it."""
        keys = self._by_source
        start = bisect_left(keys, (state,))
        return keys[start:bisect_left(keys, (state + 1,), start)]

    def distance(self, state: int) -> int | None:
        """The breadth-first distance of ``state``, a transition source, from
        the initial state; ``None`` if the initial state does not reach it."""
        depth = self._depth[bisect_left(self._by_source, (state,))]
        return None if depth == len(self._depth) else depth

    def submachine(self, a: str, b: str) -> StateMachine | None:
        """Sub-machine around the transitions whose symbol communicates a→b.

        Keeps the involved transitions plus every transition touching one of
        their endpoint states, re-rooted at the kept state nearest the
        original initial state that still reaches an involved transition,
        the lowest state id among equally near ones.
        States the new root cannot reach within the cut are dropped so the
        result is a valid machine. ``None`` if no transition communicates a→b,
        or if ``(a, b)`` is not among the subjects the index was built for.
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
            for key in (*self._leaving(state), *self._entering.get(state))
        }

        # the root is the state nearest the initial state among those that can
        # still reach an involved transition inside the cut; rooting one hop
        # before the involved states keeps their feeding context visible. Each
        # such state is an involved source or a kept transition's source.
        preds: dict[int, list[int]] = {}
        for (src, _sym), (dst, _f) in kept.items():
            preds.setdefault(dst, []).append(src)
        reaching = breadth_first(involved_sources, preds)
        root = min(reaching, key=lambda s: (self.distance(s), s))
        return canonicalize(root, kept, name=self.machine.name)


class ModelIndex:
    """The static model indexed once per run for dynamic-finding details: each
    subject's declaration (a node by ``(name,)``, a pair ``(sender, receiver)``
    by its first flow in model order), each receiver's senders, each sender's
    flows in model order, and the entry set: the external entities, else the
    services that no flow reaches. It holds the model's own objects."""

    __slots__ = ("declared", "senders", "flows_from", "entries")

    def __init__(self, model: StaticModel):
        nodes = model.services + model.external_entities
        self.declared: dict[tuple[str, ...], ServiceNode | Flow] = {(n.name,): n for n in nodes}
        self.senders: dict[str, list[str]] = {}
        self.flows_from: dict[str, list[Flow]] = {}
        for f in model.flows:
            self.declared.setdefault((f.sender, f.receiver), f)
            self.senders.setdefault(f.receiver, []).append(f.sender)
            self.flows_from.setdefault(f.sender, []).append(f)
        self.entries = frozenset(e.name for e in model.external_entities) or frozenset(
            s.name for s in model.services if s.name not in self.senders)


def _trigger_path(index: ModelIndex, target: str) -> tuple[Flow, ...]:
    """The flows of the lexicographically least shortest path to ``target``
    from an entry node. It starts at the least entry nearest the target, and
    each hop takes the least receiver one step nearer, by the first such flow
    in model order; empty if the target is an entry or no entry reaches it.

    The upstream search stops at the first whole level that holds an entry,
    so every entry it finds is a nearest one, and every node a hop can step
    to, being nearer, was found at its own distance."""
    # each node's distance to the target, up to the nearest entries'
    rdist = breadth_first([target], index.senders, until=index.entries)
    reached = index.entries.intersection(rdist)
    if not reached:
        return ()
    node = min(reached)
    path = []
    while node != target:
        nearer = rdist[node] - 1
        path.append(min((f for f in index.flows_from[node] if rdist.get(f.receiver) == nearer),
                        key=attrgetter("receiver")))
        node = path[-1].receiver
    return tuple(path)


def _call_summary_from_flow(flow: Flow) -> CallSummary | None:
    for stereo in flow.stereotypes:
        method, _, path = stereo.partition(" ")
        if method.isupper() and path.startswith("/"):
            return CallSummary(
                caller=flow.sender, callee=flow.receiver, method=method,
                path_template=path, count=1,
            )
    return None


def dynamic_nc_details(index: ModelIndex, nc: NonConformance) -> NcDetails:
    """Code pointer, expected trigger sequence, and call details, from the
    index of the static model that declares the finding's subject.

    Absent traceability or an unreachable trigger path degrade to empty
    fields; the renderer reports the absence.
    """
    if nc.kind is not NcKind.Dynamic:
        raise ValueError("dynamic_nc_details requires a dynamic non-conformance")
    declared = index.declared[nc.names]  # the missing node, or the missing flow
    trigger = _trigger_path(index, nc.names[0])  # to the node, or to the flow's sender
    if nc.subject_type == "edge":
        trigger += (declared,)

    call_details = tuple(
        s for s in (_call_summary_from_flow(f) for f in trigger) if s is not None
    )
    return NcDetails(
        kind=NcKind.Dynamic,
        code_pointer=declared.traceability,
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
) -> Iterator[tuple[NonConformance, NcDetails]]:
    """Each finding with its details, in id order, the order of the report's
    pages. A static finding's come from the global machine if it holds the
    subject, else from the lowest-named machine that does; a dynamic
    finding's from the static model. Machines are indexed in that order, and
    only while some static finding's subject is in none indexed so far.

    Nothing is made until the first finding is asked for. Then the call
    indexes and the static model's index are built, once each, and they
    live until the last finding is given; each finding's details are made
    only when it is asked for and are not kept, so a reader that drops them
    before asking for the next holds one finding's sub-machine at a time."""
    # subjects still without a machine: an edge (src, dst) or a service (name,)
    unresolved = {nc.names for nc in ncs if nc.kind is NcKind.Static}
    indexes: dict[tuple[str, ...], CallIndex] = {}  # each subject's index
    for scope in scope_order(machines):
        if not unresolved:
            break
        index = CallIndex(machines[scope], unresolved)
        held = unresolved.intersection(
            [*index.calls_by_pair, *((name,) for name in index.calls_by_service)])
        indexes.update(dict.fromkeys(held, index))
        unresolved -= held
    model_index = ModelIndex(model)
    for nc in sorted(ncs, key=attrgetter("id")):
        yield nc, (static_nc_details(indexes.get(nc.names), nc, top_n=top_n)
                   if nc.kind is NcKind.Static else dynamic_nc_details(model_index, nc))
