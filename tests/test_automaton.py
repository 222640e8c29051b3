"""State machine parsing, canonical serialization, acceptance semantics."""

import random
import time

import pytest
from hypothesis import example, find, given, settings
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
from msaconform.learner import LearnerConfig, build_pta, learn
import _reference_automaton as reference
from _reference_interpret import transition_frequencies


def machine(transitions, initial=0, name=None):
    states = {initial}
    for (s, _sym), (t, _f) in transitions.items():
        states |= {s, t}
    return StateMachine(frozenset(states), initial, transitions, name=name)


class TestStateMachine:
    def test_repr_names_every_field(self):
        sm = machine({(0, "a→b:GET /x"): (1, 5)}, name="global")
        assert repr(sm) == ("StateMachine(states=frozenset({0, 1}), initial=0, "
                            "transitions={(0, 'a→b:GET /x'): (1, 5)}, name='global')")

    def test_states_are_initial_and_targets(self):
        sm = machine({(0, "a→b:GET /x"): (1, 5), (1, "a→b:GET /y"): (0, 2)})
        assert sm.states == frozenset({0, 1})
        assert StateMachine(None, 7, {}).states == frozenset({7})

    @pytest.mark.parametrize("states", [frozenset({0}), frozenset({0, 1, 2}), frozenset({1})])
    def test_disagreeing_states_refused(self, states):
        with pytest.raises(ValueError, match="initial state and its transitions' targets"):
            StateMachine(states, 0, {(0, "a→b:GET /x"): (1, 5)})

    def test_not_equal_to_another_type(self):
        sm = machine({(0, "a→b:GET /x"): (1, 5)})
        assert sm.__eq__(repr(sm)) is NotImplemented
        assert sm != repr(sm) and sm != None  # noqa: E711 - the != operator is under test
        assert sm == machine({(0, "a→b:GET /x"): (1, 5)})


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

    def test_long_whitespace_before_a_bad_statement(self):
        """A run of whitespace before a statement that matches no kind is read
        once, not once for each way to split it around an empty statement."""
        text = "digraph sm { __start -> 0;" + " " * 50_000 + "x }"
        began = time.process_time()
        with pytest.raises(InputError,
                           match="^malformed dot at line 1: unrecognized statement 'x'$"):
            parse_state_machine(text)
        assert time.process_time() - began < 1.0  # about 3 ms; 30 s when quadratic

    def test_zero_frequency_rejected(self):
        with pytest.raises(InputError,
                           match="^malformed dot at line 1: frequency must be positive$"):
            parse_state_machine('digraph sm { __start -> 0; 0 -> 1 [label="x | 0"]; }')


# whitespace that str.strip removes, line ends of every kind among it
SPACES = [" ", "\t", "\n", "\r\n", "\x1c", "\xa0", "\u2003", "\u3000", "\x85", "\u2028"]
LONG = "9" * 4301  # more digits than int() converts
GOOD = ['0 -> 1 [label="a→b:GET /x | 2"]', '1 -> 0 [label="a→b:GET /x | 1"]',
        '0->2 [label="b→c:PUT /y | 3"]', '0 -> 0 [label="a→b:GET /x | 1"]',
        '2 -> 1 [label="c→b:GET /z | 1"]', ""]
BAD = ["__start -> 0", "__start->1", f"__start -> {LONG}", "__start -> 0 0",
       '2 -> 3 [label="x | 0"]', f'0 -> {LONG} [label="x | 1"]', f'0 -> 1 [label="x | {LONG}"]',
       '5 -> 6 [label="z | 1"]', '0 -> 1 [label="a | b | 1"]', '0 -> 1 [label="x\n | 1"]',
       '0 -> 1 [label="a;b | 1"]', "bogus", "{", "}", "digraph sm {"]


@st.composite
def dot_like_texts(draw):
    """A machine's statements padded with whitespace, at most two of them
    bad, between a header and a closing brace that may be wrong or missing."""
    ws = st.lists(st.sampled_from(SPACES), max_size=3).map("".join)
    stmts = ["__start -> 0", *draw(st.lists(st.sampled_from(GOOD), max_size=6, unique=True))]
    for _ in range(draw(st.integers(0, 2))):
        stmts.insert(draw(st.integers(0, len(stmts))), draw(st.sampled_from(BAD)))
    body = ";".join(draw(ws) + stmt + draw(ws) for stmt in stmts)
    head = draw(st.sampled_from(["digraph sm {"] * 9 + ["digraph sm{", "graph g {", ""]))
    tail = draw(st.sampled_from(["}"] * 9 + ["", ";}", "}}", "} x"]))
    return draw(ws) + head + body + draw(ws) + tail + draw(ws)


free_texts = st.lists(st.sampled_from([*SPACES, *GOOD, *BAD, ";", ";;"]), max_size=12).map(
    "".join)


def parse_outcome(parse, text: str):
    """The machine ``parse`` makes of ``text``, or its error's message."""
    try:
        return parse(text, name="m")
    except InputError as exc:
        return str(exc)


class TestParseAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(text=st.one_of(dot_like_texts(), dot_like_texts(), free_texts))
    @example(text="")
    @example(text=" \x1c\xa0\u2003\r\n")
    @example(text="\xa0digraph sm {\r\n__start -> 0;;\r\n\r\n;bogus;\r\n}\x1c")
    @example(text="digraph sm {}")
    @example(text="digraph sm { __start -> 0;")
    @example(text=('digraph sm {\n__start -> 0;\n0 -> 1 [label="x | 1"];\n'
                   '\n 0 -> 2 [label="x | 1"]}'))
    @example(text=f"digraph sm {{\n__start -> 0;\n\n__start -> {LONG};\n}}")
    @example(text=f'digraph sm {{\n__start -> 0;\n0 -> {LONG} [label="x | 1"];\n}}')
    @example(text='digraph sm {\n__start -> 0;\n0 -> 1 [label="a;b | 1"];\n}')
    @example(text=('digraph sm {\n__start -> 0;\n0 -> 1 [label="{a} | 1"];\n'
                   '1 -> 0 [label="} | 2"]}'))
    def test_same_as_reference(self, text):
        assert parse_outcome(parse_state_machine, text) == parse_outcome(
            reference.parse_state_machine, text)

    def test_equal_labels_are_one_object(self):
        text = ('digraph sm {\n__start -> 0;\n0 -> 1 [label="a→b:GET /x | 2"];\n'
                '1 -> 2 [label="a→b:GET /x | 1"];\n2 -> 0 [label="b→a:GET /y | 1"];\n}\n')
        sm = parse_state_machine(text)
        first, second, third = (sym for _state, sym in sm.transitions)
        assert first == second and first is second
        assert third == "b→a:GET /y"


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

    def test_until_stops_after_the_whole_level(self):
        """The level holding a node of ``until`` is found whole, in order,
        and nothing past it; a start in ``until`` ends the search at once."""
        succ = {"t": ["b", "y"], "b": ["u", "a", "v"], "y": ["w"], "a": ["s"], "w": ["r"]}
        full = breadth_first(["t"], succ)
        assert list(full) == ["t", "b", "y", "u", "a", "v", "w", "s", "r"]
        assert breadth_first(["t"], succ, until={"v", "s"}) == {
            "t": 0, "b": 1, "y": 1, "u": 2, "a": 2, "v": 2, "w": 2}
        assert breadth_first(["t"], succ, until={"s"}) == full
        assert breadth_first(["t"], succ, until={"t"}) == {"t": 0}
        assert breadth_first(["t"], succ, until={"zz"}) == full


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
        # no state set: the initial state need not reach every source
        index = CallIndex(StateMachine(None, initial, transitions), ())
        depths = {src: index.distance(src) for src, _sym in transitions}
        for dist in (level_distances(initial, transitions),
                     reachable_states(initial, transitions)):
            assert depths == {src: dist.get(src) for src in depths}

    def test_strategy_has_several_unreached_states(self):
        def several(m):
            initial, transitions = m
            return len(all_states(initial, transitions)
                       - reference.reachable_states(initial, transitions)) >= 3

        find(loose_machines(), several)

    @settings(max_examples=300, deadline=None)
    @given(loose_machines())
    @example((7, {(7, "x"): (900, 1), (5, "y"): (6, 1), (40, "z"): (5, 2), (6, "x"): (1000, 1)}))
    def test_parse_same_as_reference(self, m):
        """The text of a machine whose states are far apart, often with several
        of them unreachable: the parser gives the same machine, states
        included, or the same error, naming the same state."""
        text = dot_text(*m)
        assert parse_outcome(parse_state_machine, text) == parse_outcome(
            reference.parse_state_machine, text)

    @settings(max_examples=200, deadline=None)
    @given(loose_machines(), st.lists(st.lists(st.sampled_from(SYMBOLS), max_size=6),
                                      min_size=1, max_size=12))
    def test_states_are_initial_targets_and_reached(self, m, traces):
        """A parsed, a canonicalized and a learned machine's states are its
        initial state and its transitions' targets: the states it reaches."""
        machines = [canonicalize(*m), learn(traces, LearnerConfig()), build_pta(traces)]
        try:
            machines.append(parse_state_machine(dot_text(*m)))
        except InputError:  # a state the initial one does not reach
            pass
        for sm in machines:
            targets = {dst for dst, _f in sm.transitions.values()}
            assert sm.states == {sm.initial, *targets} == set(
                reachable_states(sm.initial, sm.transitions))


def dot_text(initial, transitions) -> str:
    return "".join([f"digraph sm {{\n__start -> {initial};\n",
                    *(f'{src} -> {dst} [label="{sym} | {freq}"];\n'
                      for (src, sym), (dst, freq) in transitions.items()), "}\n"])


def all_states(initial, transitions) -> set[int]:
    return {initial, *(s for s, _sym in transitions), *(t for t, _f in transitions.values())}
