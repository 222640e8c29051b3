"""State machine parsing, canonical serialization, acceptance semantics."""

import random

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from msaconform.automaton import (
    StateMachine,
    accepts,
    breadth_first,
    canonicalize,
    parse_state_machine,
    reachable_states,
    serialize_state_machine,
)
from msaconform.errors import InputError
from msaconform.interpret import CallIndex
import _reference_automaton as reference
from _reference_interpret import transition_frequencies


def machine(transitions, initial=0, name=None):
    states = {initial}
    for (s, _sym), (t, _f) in transitions.items():
        states |= {s, t}
    return StateMachine(frozenset(states), initial, transitions, name=name)


class TestParse:
    def test_basic(self):
        sm = parse_state_machine('digraph sm { __start -> 0; 0 -> 1 [label="a→b:GET /x | 5"]; }')
        assert sm.states == frozenset({0, 1})
        assert sm.transitions == {(0, "a→b:GET /x"): (1, 5)}

    def test_multiline(self):
        text = 'digraph sm {\n__start -> 0;\n0 -> 1 [label="a→b:GET /x | 5"];\n}\n'
        sm = parse_state_machine(text)
        assert sm.initial == 0 and len(sm.transitions) == 1

    def test_nondeterministic(self):
        text = (
            "digraph sm { __start -> 0; "
            '0 -> 1 [label="x | 1"]; 0 -> 2 [label="x | 1"]; }'
        )
        with pytest.raises(InputError, match="^state 0 has two transitions on 'x'$"):
            parse_state_machine(text)

    def test_unreachable(self):
        text = 'digraph sm { __start -> 0; 5 -> 6 [label="x | 1"]; }'
        with pytest.raises(InputError, match="^state 5 is unreachable from the initial state$"):
            parse_state_machine(text)

    def test_malformed(self):
        with pytest.raises(InputError, match="^malformed dot at line 1: expected 'digraph sm"):
            parse_state_machine("graph g { }")
        with pytest.raises(InputError,
                           match="^malformed dot at line 1: unrecognized statement 'what'$"):
            parse_state_machine("digraph sm { what; }")
        with pytest.raises(InputError, match="^malformed dot at line 1: missing __start line$"):
            parse_state_machine("digraph sm { }")  # no __start

    def test_malformed_line_number(self):
        text = 'digraph sm {\n__start -> 0;\nbogus line\n}'
        with pytest.raises(InputError, match="^malformed dot at line 3: "):
            parse_state_machine(text)

    def test_zero_frequency_rejected(self):
        with pytest.raises(InputError,
                           match="^malformed dot at line 1: frequency must be positive$"):
            parse_state_machine('digraph sm { __start -> 0; 0 -> 1 [label="x | 0"]; }')


class TestSerialize:
    def test_single_state(self):
        sm = machine({})
        assert serialize_state_machine(sm) == "digraph sm {\n__start -> 0;\n}\n"

    def test_equal_machines_identical(self):
        a = machine({(0, "x"): (1, 2), (0, "a"): (2, 1)})
        b = machine(dict(reversed(list({(0, "x"): (1, 2), (0, "a"): (2, 1)}.items()))))
        assert serialize_state_machine(a) == serialize_state_machine(b)

    def test_sorted_by_source_then_label(self):
        sm = machine({(1, "a"): (0, 1), (0, "b"): (1, 1), (0, "a"): (1, 1)})
        lines = serialize_state_machine(sm).splitlines()
        assert lines[2].startswith('0 -> 1 [label="a')
        assert lines[3].startswith('0 -> 1 [label="b')
        assert lines[4].startswith("1 -> 0")


def random_machine(rng: random.Random) -> StateMachine:
    n = rng.randint(1, 8)
    symbols = [f"s{rng.randint(0,5)}→d{rng.randint(0,5)}:GET /p{k}" for k in range(6)]
    transitions = {}
    # chain guarantees reachability; extra edges add structure
    for i in range(1, n):
        transitions[(rng.randrange(i), f"chain{i}")] = (i, rng.randint(1, 9))
    for _ in range(rng.randint(0, 10)):
        src = rng.randrange(n)
        sym = rng.choice(symbols)
        if (src, sym) not in transitions:
            transitions[(src, sym)] = (rng.randrange(n), rng.randint(1, 9))
    return machine(transitions)


class TestRoundTrip:
    def test_parse_serialize_fixed_point(self):
        rng = random.Random(42)
        for _ in range(100):
            sm = random_machine(rng)
            text = serialize_state_machine(sm)
            assert parse_state_machine(text) == sm
            assert serialize_state_machine(parse_state_machine(text)) == text


class TestAccepts:
    def test_single_transition(self):
        sm = machine({(0, "a"): (1, 1)})
        assert accepts(sm, ["a"])
        assert not accepts(sm, ["b"])

    def test_empty_trace(self):
        assert accepts(machine({}), [])
        assert accepts(machine({(0, "a"): (1, 1)}), [])

    def test_self_loop_rejects_other_symbols(self):
        sm = machine({(0, "loop"): (0, 1)})
        alphabet = [f"sym{i}" for i in range(10)]
        rng = random.Random(0)
        for _ in range(50):
            trace = [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
            assert not accepts(sm, trace)
        assert accepts(sm, ["loop", "loop"])

    def test_rejection_is_prefix_monotone(self):
        sm = machine({(0, "a"): (1, 1), (1, "b"): (0, 1)})
        rng = random.Random(7)
        for _ in range(100):
            trace = [rng.choice(["a", "b", "c"]) for _ in range(rng.randint(1, 6))]
            if not accepts(sm, trace):
                assert not accepts(sm, trace + [rng.choice(["a", "b", "c"])])

    def test_adding_transition_monotone(self):
        rng = random.Random(13)
        for _ in range(50):
            sm = random_machine(rng)
            symbols = sorted({sym for (_s, sym) in sm.transitions})
            if not symbols:
                continue
            trace = [rng.choice(symbols) for _ in range(4)]
            extra = dict(sm.transitions)
            extra[(rng.choice(sorted(sm.states)), "brand-new")] = (sm.initial, 1)
            bigger = machine(extra, initial=sm.initial)
            if accepts(sm, trace):
                assert accepts(bigger, trace)


class TestTransitionFrequencies:
    def test_descending(self):
        sm = machine({(0, "a"): (1, 5), (1, "b"): (0, 2)})
        assert transition_frequencies(sm) == [("a", 5), ("b", 2)]

    def test_empty(self):
        assert transition_frequencies(machine({})) == []

    def test_tie_lexicographic(self):
        sm = machine({(0, "b"): (1, 3), (1, "a"): (0, 3)})
        assert transition_frequencies(sm) == [("a", 3), ("b", 3)]

    def test_aggregates_across_states(self):
        sm = machine({(0, "a"): (1, 2), (1, "a"): (0, 3)})
        assert transition_frequencies(sm) == [("a", 5)]

    def test_filter(self):
        sm = machine({(0, "a"): (1, 2), (1, "b"): (0, 3)})
        assert transition_frequencies(sm, lambda s: s == "b") == [("b", 3)]


class TestCanonicalize:
    def test_renumbers_bfs(self):
        sm = machine({(0, "b"): (7, 1), (0, "a"): (3, 1), (3, "x"): (7, 2)})
        canon = canonicalize(sm.initial, sm.transitions)
        # 'a' explored before 'b': state 3 becomes 1, state 7 becomes 2
        assert canon.transitions == {(0, "a"): (1, 1), (0, "b"): (2, 1), (1, "x"): (2, 2)}

    def test_idempotent(self):
        rng = random.Random(21)
        for _ in range(50):
            canon = canonicalize(0, random_machine(rng).transitions)
            assert canonicalize(0, canon.transitions) == canon

    def test_drops_what_initial_does_not_reach(self):
        reached = {(0, "b"): (7, 1), (0, "a"): (3, 1), (3, "x"): (7, 2)}
        unreached = {(5, "a"): (7, 1), (5, "y"): (6, 4), (6, "z"): (5, 1)}
        canon = canonicalize(0, {**unreached, **reached}, name="m")
        assert canon == canonicalize(0, reached, name="m")
        assert canon.states == frozenset({0, 1, 2})
        assert canon.transitions == {(0, "a"): (1, 1), (0, "b"): (2, 1), (1, "x"): (2, 2)}


class TestBreadthFirst:
    def test_distance_from_nearest_start(self):
        succ = {"a": ["b", "c"], "b": ["e"], "c": ["d"], "d": ["e"], "x": ["d"]}
        assert breadth_first(["a", "x"], succ) == {"a": 0, "x": 0, "b": 1, "c": 1, "d": 1, "e": 2}

    def test_discovery_order(self):
        succ = {0: [5, 2], 5: [9, 2], 2: [7], 9: [0]}
        assert list(breadth_first([0], succ)) == [0, 5, 2, 9, 7]

    def test_node_missing_from_mapping_has_no_successors(self):
        assert breadth_first([1], {1: [2]}) == {1: 0, 2: 1}
        assert breadth_first([3], {1: [2]}) == {3: 0}

    def test_repeated_start_visited_once(self):
        asked = []

        class Recording(dict):
            def get(self, key, default=None):
                asked.append(key)
                return super().get(key, default)

        assert breadth_first([1, 1, 2, 1], Recording({1: [2, 1], 2: [1]})) == {1: 0, 2: 0}
        assert sorted(asked) == [1, 2]


SYMBOLS = ["a→b:GET /x", "a→b:POST /y", "b→a:GET /x", "b→c:GET /z", "c→c:PUT /w"]


@st.composite
def loose_machines(draw):
    """A machine's initial state and transitions: state ids shuffled and far apart,
    self-loops, and transitions out of states the initial state does not reach."""
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=10, unique=True))
    state, symbol = st.sampled_from(ids), st.sampled_from(SYMBOLS)
    edges = draw(st.lists(st.tuples(state, symbol, state, st.integers(1, 9)), max_size=25))
    transitions = {}
    for src, sym, dst, freq in edges:
        transitions.setdefault((src, sym), (dst, freq))
    return draw(state), transitions


def level_distances(initial, transitions):
    """Breadth-first distances found one level at a time, without a queue."""
    dist, frontier, step = {initial: 0}, {initial}, 0
    while frontier:
        step += 1
        frontier = {dst for (src, _sym), (dst, _f) in transitions.items()
                    if src in frontier and dst not in dist}
        dist.update(dict.fromkeys(frontier, step))
    return dist


class TestWalksAgainstReference:
    def test_strategy_has_self_loops_and_unreached_sources(self):
        def both(m):
            initial, transitions = m
            reached = reference.reachable_states(initial, transitions)
            return (any(src == dst for (src, _sym), (dst, _f) in transitions.items())
                    and any(src not in reached for src, _sym in transitions))

        find(loose_machines(), both)

    @settings(max_examples=300, deadline=None)
    @given(loose_machines())
    def test_same_as_reference(self, m):
        initial, transitions = m
        assert set(reachable_states(initial, transitions)) == reference.reachable_states(
            initial, transitions)
        assert canonicalize(initial, transitions, name="m") == reference.canonicalize(
            initial, transitions, name="m")
        states = {initial, *(s for s, _sym in transitions), *(t for t, _f in transitions.values())}
        sm = StateMachine(frozenset(states), initial, transitions)
        assert CallIndex(sm).dist == level_distances(initial, transitions)
