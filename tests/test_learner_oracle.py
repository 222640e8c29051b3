"""The bounded-work red-blue loop learns exactly what the original loop did.

``_reference_learner`` keeps the original merge loop verbatim. Every case
here compares the two learners' ``serialize_state_machine`` text and the
item order of their ``transitions``, which neither that text nor
``StateMachine.__eq__`` sees: on trace sets, and on cross-validation folds
whose prefix tree is derived from the tree of every trace by
``PrefixTree.without``. It also keeps the former trie build of the prefix
tree and the former build of every row at once, which the level-by-level
build and the rows built on first read must match list for list.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_learner as reference
from _reference_events import event_calls
from msaconform import evaluator, learner
from msaconform.automaton import canonicalize, serialize_state_machine
from msaconform.evaluator import _fold_indices, evaluate
from msaconform.events import (
    Trace,
    extract_traces,
    format_symbol,
    parse_event_log,
    template_path,
)
from msaconform.learner import LearnerConfig, PrefixTree, build_pta, learn
from msaconform.scenario import ScenarioSpec, generate

ALPHAS = (0.001, 0.05, 0.5, 1.0)
MIN_FREQS = (0, 2, 10)


def assert_same_learned(got, want):
    assert serialize_state_machine(got) == serialize_state_machine(want)
    assert list(got.transitions.items()) == list(want.transitions.items())


def assert_same_machine(traces, cfg):
    assert_same_learned(learn(traces, cfg), reference.learn(traces, cfg))


trace_sets = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=0, max_size=8), min_size=1, max_size=40
)


@settings(max_examples=300, deadline=None)
@given(
    traces=trace_sets,
    alpha=st.sampled_from(ALPHAS),
    min_freq=st.sampled_from(MIN_FREQS),
)
def test_random_trace_sets(traces, alpha, min_freq):
    assert_same_machine(traces, LearnerConfig(alpha=alpha, min_freq=min_freq))


@settings(max_examples=200, deadline=None)
@given(
    distinct=trace_sets,
    picks=st.lists(st.integers(0, 39), min_size=1, max_size=120),
    shared=st.booleans(),
    alpha=st.sampled_from(ALPHAS),
    min_freq=st.sampled_from(MIN_FREQS),
)
def test_repeated_traces(distinct, picks, shared, alpha, min_freq):
    """Many repeats of a few traces, each repeat the same object, as
    ``extract_traces`` shares equal sessions, or an equal copy: the tree
    walked once per distinct object is the one walked once per trace, and
    the learned machine is the reference's."""
    objects = [Trace(tuple(trace)) for trace in distinct]
    traces = [objects[i % len(objects)] if shared else Trace(tuple(distinct[i % len(distinct)]))
              for i in picks]
    tree, copies = PrefixTree(traces), PrefixTree([list(t.symbols) for t in traces])
    assert (tree.src, tree.sym, tree.freq, tree.leaf) == (
        copies.src, copies.sym, copies.freq, copies.leaf)
    assert_same_machine(traces, LearnerConfig(alpha=alpha, min_freq=min_freq))


def acceptance_specs():
    """The scenario specs the acceptance suite runs, in its own order."""
    rng = random.Random(1001)  # criterion 1 draws its 20 specs from this stream
    for i in range(20):
        n = 3 + (i * 17) % 18
        max_edges = n * (n - 1)
        n_edges = min(max_edges - 2, n - 1 + rng.randint(0, n))
        yield ScenarioSpec(
            n_services=n,
            n_edges=n_edges,
            n_injected_static_nc=rng.randint(0, min(2, n_edges)),
            n_injected_dynamic_nc=rng.randint(0, min(2, max_edges - n_edges)),
            n_events=3 * n_edges + rng.randint(0, 300),
            rng_seed=1000 + i,
        )
    yield ScenarioSpec(n_services=8, n_edges=14, n_events=7000, rng_seed=42)
    yield ScenarioSpec(n_services=20, n_edges=40, n_injected_static_nc=3,
                       n_injected_dynamic_nc=3, n_events=5000, rng_seed=4)
    yield ScenarioSpec(n_services=5, n_edges=6, n_injected_static_nc=2,
                       n_injected_dynamic_nc=1, n_events=200, rng_seed=7)
    yield ScenarioSpec(n_services=4, n_edges=5, n_events=100, rng_seed=3)


def test_acceptance_scenario_scopes():
    for spec in acceptance_specs():
        _model, log, _truth = generate(spec)
        scopes = extract_traces(parse_event_log(log), 1000, scope="both")
        for traces in scopes.values():
            for cfg in (LearnerConfig(), LearnerConfig(alpha=1e-10), LearnerConfig(alpha=1.0)):
                assert_same_machine(traces, cfg)


def random_walk_traces(n_walks: int, seed: int) -> list[list[str]]:
    """Seeded walks of 2 to 10 calls over a scenario's observed call graph."""
    _model, log, _truth = generate(ScenarioSpec(n_services=30, n_edges=80, n_events=240,
                                                rng_seed=1))
    calls = {}
    for src, dst, method, path in event_calls(parse_event_log(log)):
        calls.setdefault((src, dst), format_symbol(src, dst, method, template_path(path)))
    out_edges = {}
    for src, dst in sorted(calls):
        out_edges.setdefault(src, []).append((src, dst))
    edges = sorted(calls)
    rng = random.Random(seed)
    walks = []
    for i in range(n_walks):
        walk = [edges[i % len(edges)]]
        length = rng.randint(2, 10)
        while len(walk) < length and walk[-1][1] in out_edges:
            walk.append(rng.choice(out_edges[walk[-1][1]]))
        walks.append([calls[e] for e in walk])
    return walks


def test_random_walks_large_pta():
    traces = random_walk_traces(1_000, seed=7)
    assert len(build_pta(traces).states) > 2_000
    for cfg in (LearnerConfig(), LearnerConfig(alpha=0.5, min_freq=2)):
        assert_same_machine(traces, cfg)


@st.composite
def held_out_folds(draw):
    """A trace list with repeats, and a set of its indexes that leaves one or more."""
    traces = draw(trace_sets)
    traces = draw(st.permutations(traces + draw(st.lists(st.sampled_from(traces), max_size=10))))
    held = draw(st.sets(st.integers(0, len(traces) - 1), max_size=len(traces) - 1))
    return traces, held


def assert_fold_learns_like_reference(tree, traces, held, cfg):
    train = [t for i, t in enumerate(traces) if i not in held]
    assert_same_learned(learn(train, cfg, pta=tree.without(held)), reference.learn(train, cfg))


@settings(max_examples=300, deadline=None)
@given(held_out_folds())
def test_fold_tree_learns_like_its_own_pta(case):
    """A fold's tree, subtracted from the tree of every trace, learns what the
    fold's own traces do, at every alpha and min_freq."""
    traces, held = case
    tree = PrefixTree(traces)
    for alpha in ALPHAS:
        for min_freq in MIN_FREQS:
            assert_fold_learns_like_reference(tree, traces, held, LearnerConfig(alpha, min_freq))


@settings(max_examples=300, deadline=None)
@given(held_out_folds())
def test_fold_tree_is_the_tree_of_its_traces(case):
    """The states a fold's tree keeps a count on, in id order, are the tree of
    the fold's own traces entry for entry, with ``src`` renumbered."""
    traces, held = case
    fold = PrefixTree(traces).without(held)
    train = [t for i, t in enumerate(traces) if i not in held]
    own = PrefixTree(train)
    kept = [t for t, f in enumerate(fold.freq) if f > 0]
    renumbered = {-1: -1, **{t: i for i, t in enumerate(kept)}}
    assert [fold.sym[t] for t in kept] == own.sym
    assert [fold.freq[t] for t in kept] == own.freq
    assert own.freq[0] == len(train)
    assert [renumbered[fold.src[t]] for t in kept] == own.src
    assert [renumbered[t] for t in fold.leaf] == own.leaf


def tree_lists(tree):
    return tree.src, tree.sym, tree.freq, tree.leaf


# each distinct trace as a Trace, a list, a tuple or a string of one-letter symbols
as_kind = {"trace": lambda t: Trace(tuple(t)), "list": list, "tuple": tuple, "str": "".join}


@st.composite
def trace_objects(draw):
    """Traces of every kind the learner takes, empty ones included, each
    repeated as the same object or as an equal copy, and a set of their
    indexes that leaves one or more."""
    distinct = draw(trace_sets)
    kinds = draw(st.lists(st.sampled_from(sorted(as_kind)), min_size=len(distinct),
                          max_size=len(distinct)))
    objects = [as_kind[kind](trace) for kind, trace in zip(kinds, distinct)]
    picks = draw(st.lists(st.tuples(st.integers(0, len(objects) - 1), st.booleans()),
                          min_size=1, max_size=80))
    traces = [objects[i] if shared else as_kind[kinds[i]](distinct[i]) for i, shared in picks]
    held = draw(st.sets(st.integers(0, len(traces) - 1), max_size=len(traces) - 1))
    return traces, held


@settings(max_examples=300, deadline=None)
@given(trace_objects())
def test_tree_is_the_trie_build(case):
    """The level-by-level build gives the trie build's four lists, and so
    does each tree ``without`` makes of them."""
    traces, held = case
    tree, trie = PrefixTree(traces), reference.TriePrefixTree(traces)
    assert tree_lists(tree) == tree_lists(trie)
    assert tree_lists(tree.without(held)) == tree_lists(trie.without(held))


@settings(max_examples=300, deadline=None)
@given(trace_objects())
def test_no_state_the_loop_reads_has_a_zero_total(case):
    """Every state a chain links is entered by at least one trace, in a tree
    and in each fold ``without`` makes, and after the merge loop every live
    state's total is positive: the check and the scan divide by totals
    without a guard."""
    traces, held = case
    tree = PrefixTree(traces)
    for fold in (tree, tree.without(held)):
        for alpha in ALPHAS:
            for min_freq in MIN_FREQS:
                rb = learner._RedBlue(fold, LearnerConfig(alpha, min_freq))
                assert all(fold.freq[t] > 0 for t, rank in enumerate(rb.made) if rank >= 0)
                rb.run()
                live = set(rb.trans).union(t for row in rb.trans.values()
                                           for t, _f in row.values())
                assert all(rb.total[t] > 0 for t in live)


@settings(max_examples=300, deadline=None)
@given(held_out_folds())
def test_rows_built_on_read_are_the_eager_rows(case):
    """Before any merge, each made state's row, whether built on read or
    walked as a chain, is the row the former build made at once, item for
    item, with the same heaviest entry; the states are made in the same
    order, and ``build_pta`` gives the machine of the rows built at once."""
    traces, held = case
    tree = PrefixTree(traces)
    for fold in (tree, tree.without(held)):
        trans, end, top, heavy = reference.eager_rows(fold)
        rb = learner._RedBlue(fold, LearnerConfig())
        assert rb.end == end
        made = [t for t, rank in enumerate(rb.made) if rank >= 0]
        assert sorted(made, key=rb.made.__getitem__) == list(trans)
        assert all(list(rb._chain(t)) == list(row.items()) for t, row in trans.items())
        for t, row in trans.items():
            assert list(rb.row(t).items()) == list(row.items()), t
            assert (rb.top[t], rb.heavy[t]) == (top[t], heavy[t]), t
    eager = canonicalize(0, {(s, sym): entry for s, row in reference.eager_rows(tree)[0].items()
                             for sym, entry in row.items()})
    assert list(build_pta(traces).transitions.items()) == list(eager.transitions.items())


@settings(max_examples=200, deadline=None)
@given(held_out_folds())
def test_parent_edge_keeps_the_tree_symbol(case):
    """After every merge, each live non-red state with a parent sits in the
    parent's row under its own symbol in the tree."""
    traces, held = case
    fold = PrefixTree(traces).without(held)
    train = [t for i, t in enumerate(traces) if i not in held]
    merge = learner._RedBlue._merge

    def checking_merge(self, red, blue):
        merge(self, red, blue)
        for t in self.trans:
            parent = self.parent_src[t]
            if t not in self.red and parent >= 0:
                assert self.trans[parent][fold.sym[t]][0] == t, (t, parent)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(learner._RedBlue, "_merge", checking_merge)
        for alpha in ALPHAS:
            for min_freq in MIN_FREQS:
                learn(train, LearnerConfig(alpha, min_freq), pta=fold)


# Found by random search. A merge walks each row in the order its symbols
# were first inserted, which decides the states a fold keeps and so the
# later merge order. These learn another machine if rows follow symbol
# order (the first) or, in a fold, the insertion order of all the traces
# rather than of the fold's own (the second).
ROW_ORDER_CASES = [
    ([[], [], ["a", "d", "a"], ["a", "a", "d", "a", "a"], ["a", "d", "a"],
      ["a", "a", "a", "b"], ["d"]], set(), LearnerConfig(alpha=1.0, min_freq=2)),
    ([list(t) for t in ("cdcaa", "bb", "cd", "dacccd", "ddc", "a", "dbabaab", "dacdbd", "ca",
                        "", "db", "abdcdbd", "ccda", "aabda", "db", "a", "cbc", "abdcb",
                        "cdababac", "bb", "", "cbc", "a", "abcdddd", "ddc")],
     {4, 5, 11, 12, 15, 23, 24}, LearnerConfig(alpha=1.0, min_freq=0)),
]


@pytest.mark.parametrize("traces, held, cfg", ROW_ORDER_CASES)
def test_rows_keep_insertion_order(traces, held, cfg):
    assert_fold_learns_like_reference(PrefixTree(traces), traces, held, cfg)


def test_random_walk_folds():
    traces = random_walk_traces(1_000, seed=7)
    tree = PrefixTree(traces)
    for test_idx in _fold_indices(len(traces), 10, random.Random(3)):
        assert_fold_learns_like_reference(tree, traces, set(test_idx), LearnerConfig())


def scenario_log_traces() -> list[Trace]:
    _model, log, _truth = generate(ScenarioSpec(n_services=20, n_edges=40, n_events=5000,
                                                rng_seed=4))
    return extract_traces(parse_event_log(log), 1000)["global"]


def random_walk_trace_list() -> list[Trace]:
    # many short traces sharing prefixes: unlike the few long sessions of a
    # scenario log, their folds' machines change if a fold's tree is wrong
    return [Trace(tuple(walk)) for walk in random_walk_traces(200, seed=5)]


@pytest.mark.parametrize("make_traces", [scenario_log_traces, random_walk_trace_list])
def test_evaluate_learns_each_fold_like_the_reference(monkeypatch, make_traces):
    """``evaluate``'s own folds give the reference learner's machines and metrics."""
    traces = make_traces()
    got_machines, want_machines = [], []

    def recording(learner, machines):
        def fn(*args, **kwargs):
            machine = learner(*args, **kwargs)
            machines.append(serialize_state_machine(machine))
            return machine
        return fn

    monkeypatch.setattr(evaluator, "learn", recording(evaluator.learn, got_machines))
    for cfg in (LearnerConfig(), LearnerConfig(alpha=0.5, min_freq=2)):
        reference_fn = recording(lambda train, cfg=cfg: reference.learn(train, cfg),
                                 want_machines)
        want = evaluate(traces, cfg, k=10, rng_seed=1, model_fn=reference_fn)
        assert evaluate(traces, cfg, k=10, rng_seed=1) == want
    assert len(got_machines) == 20
    assert got_machines == want_machines
