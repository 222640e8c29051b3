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
import sys
from pathlib import Path

import pytest

from msaconform import cli
from msaconform.automaton import serialize_state_machine
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
