"""The benchmark's layer spans still find the functions they wrap.

``bench/tracing.py`` times each layer by replacing the functions named in
its ``WRAPPED`` table. A function that is renamed, or that the CLI no longer
calls through the wrapped name, would fire no span; these tests make that a
test failure instead of a gap in the benchmark's per-layer data. They only
read ``bench/``.
"""

import contextlib
import importlib
import importlib.util
import io
import random
import sys
from pathlib import Path

import pytest

from msaconform import cli
from msaconform.automaton import serialize_state_machine
from msaconform.evaluator import _fold_indices
from msaconform.events import extract_traces, parse_event_log
from msaconform.learner import build_pta
from msaconform.scenario import ScenarioSpec, generate
from msaconform.static_model import serialize_static_model

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("span", sorted(tracing.WRAPPED))
def test_wrapped_function_exists(span):
    module_name, attr = tracing.WRAPPED[span]
    assert callable(getattr(importlib.import_module(module_name), attr, None)), span


def traced_run(argv):
    tracer = tracing.Tracer()
    with contextlib.redirect_stdout(io.StringIO()), tracer.trace():
        assert cli.run(argv) == 0
    assert tracer.not_found == []
    return {span.name for span in tracer.spans}


def test_every_span_fires(tmp_path):
    """One run from a log with --evaluate and one from a .dot file fire every span."""
    spec = ScenarioSpec(n_services=5, n_edges=6, n_injected_static_nc=1,
                        n_injected_dynamic_nc=1, n_events=300, rng_seed=2)
    model, log, _truth = generate(spec)
    static_path = tmp_path / "static_model.json"
    static_path.write_text(serialize_static_model(model), "utf-8")
    from_log = tmp_path / "from_log"
    from_log.mkdir()
    (from_log / "events.jsonl").write_text(log, "utf-8")
    fired = traced_run(["--static_model_path", str(static_path),
                        "--dynamic_models_path", str(from_log),
                        "--output_path", str(tmp_path / "out_log"), "--evaluate"])

    from_dot = tmp_path / "from_dot"
    from_dot.mkdir()
    pta = build_pta([["a→b:GET /x", "b→c:GET /y"], ["a→c:GET /z"]])
    (from_dot / "global.dot").write_text(serialize_state_machine(pta), "utf-8")
    fired |= traced_run(["--static_model_path", str(static_path),
                         "--dynamic_models_path", str(from_dot),
                         "--output_path", str(tmp_path / "out_dot")])
    assert fired == {tracing.ROOT_SPAN, *tracing.WRAPPED}


def test_each_fold_learns_through_the_wrapped_learn(tmp_path):
    """Under ``--evaluate`` the wrapped ``learn`` fires once per fold, with that fold's
    training traces as its first argument: the spans the benchmark counts as
    ``evaluator.folds``, ``learner.pta_states`` and ``learned_states`` see every fold."""
    spec = ScenarioSpec(n_services=5, n_edges=6, n_events=300, rng_seed=2)
    model, log, _truth = generate(spec)
    static_path = tmp_path / "static_model.json"
    static_path.write_text(serialize_static_model(model), "utf-8")
    dyn_dir = tmp_path / "dynamic"
    dyn_dir.mkdir()
    (dyn_dir / "events.jsonl").write_text(log, "utf-8")
    tracer = tracing.Tracer()
    with contextlib.redirect_stdout(io.StringIO()), tracer.trace():
        assert cli.run(["--static_model_path", str(static_path),
                        "--dynamic_models_path", str(dyn_dir),
                        "--output_path", str(tmp_path / "out"), "--evaluate"]) == 0

    traces = extract_traces(parse_event_log(log), 1000)["global"]
    k = min(10, len(traces))
    folds = _fold_indices(len(traces), k, random.Random(0))  # the CLI evaluates with seed 0
    (evaluate_span,) = [s for s in tracer.spans if s.name == "evaluator.evaluate"]
    fold_learns = [s for s in tracer.spans
                   if s.name == "learner.learn" and s.parent == evaluate_span.id]
    assert len(fold_learns) == k
    for span, fold in zip(fold_learns, folds):
        args, kwargs, _machine = span.call
        train = args[0] if args else kwargs["traces"]
        assert len(train) == len(traces) - len(fold)
        assert train == [t for i, t in enumerate(traces) if i not in set(fold)]
