"""Deterministic frequency-labeled state machines and their DOT serialization.

The on-disk format is a small DOT subset::

    digraph sm {
    __start -> 0;
    0 -> 1 [label="a→b:GET /x | 5"];
    }

Statements end at ``;``, the last one optionally. Whitespace, line ends
included, may stand around each statement, around ``->`` and before ``[``;
the label attribute is written as shown. A label holds no ``"``, ``|`` or
``;``, so the first ``;`` after a statement's start always ends it.

A trace is accepted iff every symbol has a defined transition along the
walk from the initial state; there is no accepting-state set.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import AbstractSet, Hashable, Iterable, Mapping, TypeVar

from .errors import InputError, clip, too_many_digits


_source = itemgetter(0)  # of a transition key (state, symbol)
_target = itemgetter(0)  # of a transition value (target, frequency)


class StateMachine:
    """All states reachable from ``initial``, all frequencies positive: the
    program's producers build it so, and ``parse_state_machine`` checks it.

    ``states`` is not stored but derived: ``initial`` and every transition
    target, which for such a machine are the states ``initial`` reaches. A
    ``states`` set given to the constructor must be that set, or it raises
    ``ValueError``; ``None`` skips the check. Two machines are equal when
    their initial states, transitions and names are. A machine can be
    weakly referenced."""

    __slots__ = ("initial", "transitions", "name", "__weakref__")

    def __init__(self, states: frozenset[int] | None, initial: int,
                 transitions: dict[tuple[int, str], tuple[int, int]], name: str | None = None):
        self.initial = initial
        self.transitions = transitions  # (state, symbol) -> (target, frequency)
        self.name = name
        if states is not None and states != self.states:
            raise ValueError("a machine's states are its initial state and its transitions' "
                             "targets")

    @property
    def states(self) -> frozenset[int]:
        return frozenset([self.initial, *map(_target, self.transitions.values())])

    def _key(self) -> tuple:
        return self.initial, self.transitions, self.name

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return "StateMachine(states={!r}, initial={!r}, transitions={!r}, name={!r})".format(
            self.states, *self._key())


Node = TypeVar("Node", bound=Hashable)


def breadth_first(
    starts: Iterable[Node], successors: Mapping[Node, Iterable[Node]],
    until: AbstractSet[Node] = frozenset(),
) -> dict[Node, int]:
    """Every node reachable from ``starts``, in the order a breadth-first search
    finds it, with its distance from the nearest start. ``successors`` lists each
    node's successors in visiting order; a node it lacks has none. The search
    stops once a whole level is found that holds a node of ``until``: no node
    farther away is in the result."""
    dist = dict.fromkeys(starts, 0)
    level, step = list(dist), 0
    while level and until.isdisjoint(level):
        step += 1
        below = []
        for node in level:
            for nxt in successors.get(node, ()):
                if nxt not in dist:
                    dist[nxt] = step
                    below.append(nxt)
        level = below
    return dist


class Runs:
    """A mapping from each key of the sorted list ``keys`` to the slice of
    the parallel list ``values`` beside that key's run, found by bisection:
    two flat lists in place of one list per key."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: list, values: list):
        self.keys = keys
        self.values = values

    def get(self, key, _default=()) -> list:
        keys = self.keys
        return self.values[bisect_left(keys, key):bisect_right(keys, key)]


def reachable_states(
    initial: int, transitions: dict[tuple[int, str], tuple[int, int]],
    by_source: list[tuple[int, str]] | None = None,
) -> dict[int, int]:
    """States reachable from ``initial`` over ``transitions``, ``initial`` included,
    with their breadth-first distance from it. ``by_source`` is the transition
    keys sorted by source state, sorted here if not given; a state's
    successors are taken in that order, found by bisection over two flat
    lists that live only for the walk."""
    if by_source is None:
        by_source = sorted(transitions, key=_source)
    return breadth_first([initial], Runs(list(map(_source, by_source)),
                                         [transitions[key][0] for key in by_source]))


def _malformed(line_no: int, reason: str) -> InputError:
    return InputError(f"malformed dot at line {line_no}: {reason}")


_SPACE = re.compile(r"\s*")
_SHELL = re.compile(r"\s*digraph sm \{(.*)\}\s*", re.S)
# one statement with the whitespace around it, up to its ";" or the body's end:
# a transition (groups 1-4), the __start line (group 5) or nothing; the
# whitespace after a statement is matched inside each kind, so that a run of
# it before a bad statement is tried once, not once for each way to split it
_STATEMENT = re.compile(r'\s*(?:(\d+)\s*->\s*(\d+)\s*\[label="([^"|;]*) \| (\d+)"\]\s*'
                        r"|__start\s*->\s*(\d+)\s*|)(?:;|\Z)")


def parse_state_machine(dot_text: str, name: str | None = None) -> StateMachine:
    """Parse the DOT subset into a StateMachine, checking that frequencies are
    positive and that every state is reachable from the initial one.

    One match of ``_SHELL`` finds the body, and one match of ``_STATEMENT``
    at each position reads a statement and the ``;``, if any, that ends it,
    so no part of the text is copied; equal labels share one ``str``, and
    equal state ids one ``int``. A statement's line, the line of its first
    character that is not whitespace, is counted only for an error, and only
    then is its end searched for, to quote it. The text is let go once the
    statements are read, and the reachability check's states are let go once
    it passes: the machine stores no state set.
    """
    m = _SHELL.fullmatch(dot_text)
    if m is None:
        raise _malformed(1, "expected 'digraph sm { ... }'")

    def malformed(pos: int, reason: str) -> InputError:
        return _malformed(dot_text.count("\n", 0, _SPACE.match(dot_text, pos).end()) + 1, reason)

    initial: int | None = None
    transitions: dict[tuple[int, str], tuple[int, int]] = {}
    labels: dict[str, str] = {}  # one copy of each distinct label
    ids: dict[int, int] = {}  # one int of each distinct state id
    pos, end = m.span(1)
    try:
        while pos < end:
            m = _STATEMENT.match(dot_text, pos, end)
            if m is None:
                semi = dot_text.find(";", pos, end)
                stmt = dot_text[pos:end if semi < 0 else semi].strip()
                raise malformed(pos, f"unrecognized statement {clip(stmt)!r}")
            src, dst, label, freq, start = m.groups()
            if src is not None:
                if initial is None:
                    raise malformed(pos, "transition before __start line")
                src, dst, freq = int(src), int(dst), int(freq)
                src, dst = ids.setdefault(src, src), ids.setdefault(dst, dst)
                symbol = labels.setdefault(label, label)
                if freq < 1:
                    raise malformed(pos, "frequency must be positive")
                if (src, symbol) in transitions:
                    raise InputError(f"state {clip(str(src))} has two transitions on "
                                     f"{clip(symbol)!r}")
                transitions[(src, symbol)] = (dst, freq)
            elif start is not None:
                if initial is not None:
                    raise malformed(pos, "duplicate __start line")
                initial = int(start)
                ids[initial] = initial
            pos = m.end()
    except ValueError:  # more digits than int() converts
        raise malformed(pos, too_many_digits()) from None
    del dot_text, malformed, ids, m  # the text dies here unless the caller holds it
    if initial is None:
        raise _malformed(1, "missing __start line")

    # every state is reachable when every transition's source is
    reached = reachable_states(initial, transitions)
    if any(src not in reached for src, _sym in transitions):
        states = {initial}
        for (src, _sym), (dst, _f) in transitions.items():
            states.add(src)
            states.add(dst)
        for state in frozenset(states).difference(reached):
            raise InputError(f"state {clip(str(state))} is unreachable from the initial state")
    return StateMachine(None, initial, transitions, name=name)


def serialize_state_machine(sm: StateMachine) -> str:
    """Canonical text: transitions sorted by (source id, label), LF endings."""
    lines = ["digraph sm {", f"__start -> {sm.initial};"]
    for (src, sym), (dst, freq) in sorted(sm.transitions.items()):
        lines.append(f'{src} -> {dst} [label="{sym} | {freq}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def canonicalize(
    initial: int, transitions: dict[tuple[int, str], tuple[int, int]], name: str | None = None
) -> StateMachine:
    """The machine ``initial`` reaches over ``transitions``, with states renumbered
    breadth-first, exploring symbols in sorted order. A transition that leaves
    a state ``initial`` does not reach is dropped."""
    succ: dict[int, list[int]] = {}  # targets in symbol order
    for (src, _sym), (dst, _f) in sorted(transitions.items()):
        succ.setdefault(src, []).append(dst)
    order = {state: i for i, state in enumerate(breadth_first([initial], succ))}
    renumbered = {
        (order[src], sym): (order[dst], freq)
        for (src, sym), (dst, freq) in transitions.items()
        if src in order
    }
    return StateMachine(None, 0, renumbered, name=name)


def accepts(sm: StateMachine, trace: Iterable[str]) -> bool:
    """Walk from the initial state; reject at the first undefined transition."""
    state = sm.initial
    for symbol in trace:
        nxt = sm.transitions.get((state, symbol))
        if nxt is None:
            return False
        state = nxt[0]
    return True

