"""CLI contract tests: flags, progress output, summary line, exit codes."""

import json
from pathlib import Path

import pytest

from msaconform.cli import run
from msaconform.scenario import ScenarioSpec, generate
from msaconform.static_model import serialize_static_model


@pytest.fixture
def faulty_inputs(tmp_path: Path):
    spec = ScenarioSpec(
        n_services=5, n_edges=6, n_injected_static_nc=2,
        n_injected_dynamic_nc=1, n_events=200, rng_seed=7,
    )
    model, log, truth = generate(spec)
    static_path = tmp_path / "static_model.json"
    static_path.write_text(serialize_static_model(model), "utf-8")
    dyn_dir = tmp_path / "dynamic"
    dyn_dir.mkdir()
    (dyn_dir / "events.jsonl").write_text(log, "utf-8")
    return static_path, dyn_dir, tmp_path / "out", truth


@pytest.fixture
def clean_inputs(tmp_path: Path):
    spec = ScenarioSpec(n_services=4, n_edges=5, n_events=100, rng_seed=3)
    model, log, _truth = generate(spec)
    static_path = tmp_path / "static_model.json"
    static_path.write_text(serialize_static_model(model), "utf-8")
    dyn_dir = tmp_path / "dynamic"
    dyn_dir.mkdir()
    (dyn_dir / "events.jsonl").write_text(log, "utf-8")
    return static_path, dyn_dir, tmp_path / "out"


def invoke(static_path, dyn_dir, out_dir, *extra):
    return run(
        [
            "--static_model_path", str(static_path),
            "--dynamic_models_path", str(dyn_dir),
            "--output_path", str(out_dir),
            *extra,
        ]
    )


class TestAnalysis:
    def test_findings_run(self, faulty_inputs, capsys):
        static_path, dyn_dir, out_dir, truth = faulty_inputs
        code = invoke(static_path, dyn_dir, out_dir)
        out = capsys.readouterr().out
        assert code == 0
        assert (
            "Detected 2 static non-conformances and 1 dynamic non-conformance "
            "between implementation and deployment of the system!" in out
        )
        assert out.count("Detecting non-conformances: 100") == 2
        assert "Reading configuration file..." in out
        assert "Processing static model..." in out
        assert "Processing dynamic model..." in out
        assert (out_dir / "architecture.puml").is_file()
        assert (out_dir / "index.html").is_file()
        for nc in truth.expected:
            assert (out_dir / f"nc_{nc.id}.html").is_file()

    def test_clean_run(self, clean_inputs, capsys):
        code = invoke(*clean_inputs)
        out = capsys.readouterr().out
        assert code == 0
        assert (
            "Detected 0 static non-conformances and 0 dynamic non-conformances" in out
        )
        index = (clean_inputs[2] / "index.html").read_text("utf-8")
        assert "fully conforms" in index

    def test_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", "utf-8")
        dyn = tmp_path / "dyn"
        dyn.mkdir()
        (dyn / "events.jsonl").write_text(
            '{"ts":1,"src":"a","dst":"b","method":"GET","path":"/x"}\n', "utf-8"
        )
        code = invoke(bad, dyn, tmp_path / "out")
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_output_flag(self, capsys):
        code = run(["--static_model_path", "x.json", "--dynamic_models_path", "d"])
        assert code == 2
        assert "output_path" in capsys.readouterr().err

    def test_singular_plural(self, faulty_inputs, capsys):
        static_path, dyn_dir, out_dir, _truth = faulty_inputs
        invoke(static_path, dyn_dir, out_dir)
        out = capsys.readouterr().out
        assert "1 dynamic non-conformance " in out
        assert "1 dynamic non-conformances" not in out

    def test_byte_identical_reruns(self, faulty_inputs):
        static_path, dyn_dir, out_dir, _truth = faulty_inputs
        invoke(static_path, dyn_dir, out_dir)
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        invoke(static_path, dyn_dir, out_dir)
        second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert first == second

    def test_fail_on_nc(self, faulty_inputs):
        static_path, dyn_dir, out_dir, _truth = faulty_inputs
        assert invoke(static_path, dyn_dir, out_dir, "--fail-on-nc") == 3

    def test_explicit_dot_takes_precedence(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        # a hand-written global machine replaces the learned one; its extra
        # ghost→rider call surfaces as 2 node + 1 edge static non-conformances
        (dyn_dir / "global.dot").write_text(
            'digraph sm {\n__start -> 0;\n0 -> 0 [label="ghost→rider:GET /x | 1"];\n}\n',
            "utf-8",
        )
        code = invoke(static_path, dyn_dir, out_dir)
        out = capsys.readouterr().out
        assert code == 0
        assert "3 static non-conformances" in out
        assert (out_dir / "nc_static-edge-ghost--rider.html").is_file()

    def test_evaluate_flag_writes_metrics(self, clean_inputs):
        static_path, dyn_dir, out_dir = clean_inputs
        code = invoke(static_path, dyn_dir, out_dir, "--evaluate")
        assert code == 0
        assert (out_dir / "evaluation.txt").is_file()
        assert "balanced_accuracy" in (out_dir / "evaluation.json").read_text("utf-8")


class TestConfigFile:
    def test_config_applied(self, clean_inputs, tmp_path, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        cfg = tmp_path / "conf.txt"
        cfg.write_text("session_gap_ms = 500\nalpha = 0.1  # comment\n\n", "utf-8")
        assert invoke(static_path, dyn_dir, out_dir, "--config", str(cfg)) == 0

    def test_unknown_key_rejected(self, clean_inputs, tmp_path, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        cfg = tmp_path / "conf.txt"
        cfg.write_text("not_a_key = 1\n", "utf-8")
        code = invoke(static_path, dyn_dir, out_dir, "--config", str(cfg))
        assert code == 2
        assert "not_a_key" in capsys.readouterr().err

    def test_bad_value_rejected(self, clean_inputs, tmp_path, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        cfg = tmp_path / "conf.txt"
        cfg.write_text("alpha = banana\n", "utf-8")
        assert invoke(static_path, dyn_dir, out_dir, "--config", str(cfg)) == 2

    def test_negative_min_freq_rejected(self, clean_inputs, tmp_path, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        cfg = tmp_path / "conf.txt"
        cfg.write_text("min_freq = -1\n", "utf-8")
        code = invoke(static_path, dyn_dir, out_dir, "--config", str(cfg), "--evaluate")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "min_freq" in err
        assert not out_dir.exists()


class TestScenarioMode:
    def test_generates_inputs_then_analyzes(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "n_services": 5, "n_edges": 6, "n_injected_static_nc": 2,
                    "n_injected_dynamic_nc": 1, "n_events": 200, "rng_seed": 7,
                }
            ),
            "utf-8",
        )
        gen_dir = tmp_path / "gen"
        assert run(["--scenario", str(spec_file), "--output_path", str(gen_dir)]) == 0
        assert (gen_dir / "static_model.json").is_file()
        assert (gen_dir / "dynamic_models" / "events.jsonl").is_file()
        assert (gen_dir / "ground_truth.json").is_file()
        capsys.readouterr()

        code = invoke(
            gen_dir / "static_model.json", gen_dir / "dynamic_models", tmp_path / "out"
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Detected 2 static non-conformances and 1 dynamic non-conformance" in out

    def test_scenario_requires_output(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"n_services": 3, "n_edges": 3}', "utf-8")
        assert run(["--scenario", str(spec_file)]) == 2
