"""CLI contract tests: flags, progress output, summary line, exit codes."""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from msaconform import cli, detector, interpret
from msaconform.automaton import serialize_state_machine
from msaconform.cli import Config, _parse_config_file, run
from msaconform.learner import build_pta
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

    def test_reserved_service_name_rejected(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        (dyn_dir / "events.jsonl").write_text(
            '{"ts":0,"src":"a","dst":"b","method":"GET","path":"/x"}\n'
            '{"ts":10,"src":"global","dst":"c","method":"GET","path":"/y"}\n',
            "utf-8",
        )
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'global' is reserved" in err

    def test_per_service_static_details_show_calls(self, tmp_path):
        # under per_service only the caller's and the callee's machines hold a
        # finding's edge, and the lowest-named machine holds neither edge here
        spec = ScenarioSpec(
            n_services=8, n_edges=10, n_injected_static_nc=2,
            n_injected_dynamic_nc=1, n_events=400, rng_seed=11,
        )
        model, log, truth = generate(spec)
        static_path = tmp_path / "static_model.json"
        static_path.write_text(serialize_static_model(model), "utf-8")
        dyn_dir = tmp_path / "dynamic"
        dyn_dir.mkdir()
        (dyn_dir / "events.jsonl").write_text(log, "utf-8")
        cfg = tmp_path / "conf.txt"
        cfg.write_text("trace_scope = per_service\n", "utf-8")
        assert invoke(static_path, dyn_dir, tmp_path / "out", "--config", str(cfg)) == 0
        static_edges = [nc for nc in truth.expected if nc.id.startswith("static-edge-")]
        assert len(static_edges) == 2
        for nc in static_edges:
            page = (tmp_path / "out" / f"nc_{nc.id}.html").read_text("utf-8")
            assert "No state machine" not in page
            calls = page.split("<h3>Most frequent calls</h3>", 1)[1]
            assert "<td>" in calls

    def test_evaluate_per_service_shares_global_traces(self, faulty_inputs, tmp_path):
        static_path, dyn_dir, out_dir, _truth = faulty_inputs
        cfg = tmp_path / "conf.txt"
        cfg.write_text("trace_scope = per_service\n", "utf-8")
        scoped = tmp_path / "scoped"
        assert invoke(static_path, dyn_dir, out_dir, "--evaluate") == 0
        assert invoke(static_path, dyn_dir, scoped, "--evaluate", "--config", str(cfg)) == 0
        evaluation = (scoped / "evaluation.json").read_bytes()
        assert evaluation == (out_dir / "evaluation.json").read_bytes()
        # the global traces swept for --evaluate are not learned as a machine
        plain = tmp_path / "plain"
        assert invoke(static_path, dyn_dir, plain, "--config", str(cfg)) == 0
        pages = {p.name: p.read_bytes() for p in plain.iterdir()}
        assert {p.name: p.read_bytes() for p in scoped.iterdir() if p.name in pages} == pages

    def test_evaluate_flag_writes_metrics(self, clean_inputs):
        static_path, dyn_dir, out_dir = clean_inputs
        code = invoke(static_path, dyn_dir, out_dir, "--evaluate")
        assert code == 0
        assert (out_dir / "evaluation.txt").is_file()
        assert "balanced_accuracy" in (out_dir / "evaluation.json").read_text("utf-8")

    def test_evaluate_skipped_without_log(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        (dyn_dir / "events.jsonl").unlink()
        (dyn_dir / "global.dot").write_text(
            'digraph sm {\n__start -> 0;\n0 -> 1 [label="a→b:GET /x | 3"];\n}\n', "utf-8")
        assert invoke(static_path, dyn_dir, out_dir, "--evaluate") == 0
        out = capsys.readouterr().out
        assert out.count("Skipping evaluation: there is no events.jsonl log to evaluate on\n") == 1
        assert not (out_dir / "evaluation.json").exists()

    def test_evaluate_skipped_with_one_trace(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        (dyn_dir / "events.jsonl").write_text(
            '{"ts": 0, "src": "a", "dst": "b", "method": "GET", "path": "/x"}\n'
            '{"ts": 5, "src": "b", "dst": "c", "method": "GET", "path": "/y"}\n', "utf-8")
        assert invoke(static_path, dyn_dir, out_dir, "--evaluate") == 0
        out = capsys.readouterr().out
        assert out.count("Skipping evaluation: it needs at least 2 global traces, "
                         "the log has 1\n") == 1
        assert not (out_dir / "evaluation.json").exists()
        # without --evaluate nothing is said about it
        assert invoke(static_path, dyn_dir, out_dir) == 0
        assert "Skipping evaluation" not in capsys.readouterr().out


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

    def test_alpha_out_of_range_rejected(self, clean_inputs, tmp_path, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        cfg = tmp_path / "conf.txt"
        cfg.write_text("alpha = 2\n", "utf-8")
        code = invoke(static_path, dyn_dir, out_dir, "--config", str(cfg))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "alpha" in err

    # per Config field: a text other than the default, the value it parses to, and bad texts
    FIELD_CASES = {
        "session_gap_ms": ("250", 250, ["0", "1.5", "x"]),
        "alpha": ("0.1", 0.1, ["2", "0", "banana"]),
        "min_freq": ("3", 3, ["-1", "2.5"]),
        "top_n_calls": ("7", 7, ["0", "seven"]),
        "include_externals": ("true", True, ["yes", "True", ""]),
        "trace_scope": ("per_service", "per_service", ["all", ""]),
    }

    @pytest.mark.parametrize("field", fields(Config), ids=lambda f: f.name)
    def test_every_field(self, tmp_path, capsys, field):
        text, value, bad_texts = self.FIELD_CASES[field.name]
        cfg = tmp_path / "conf.txt"
        cfg.write_text(f"{field.name} = {text}\n", "utf-8")
        parsed = getattr(_parse_config_file(cfg), field.name)
        assert parsed == value != field.default
        assert type(parsed).__name__ == field.type
        for bad in bad_texts:
            cfg.write_text(f"{field.name} = {bad}\n", "utf-8")
            code = invoke(tmp_path / "model.json", tmp_path, tmp_path / "out", "--config", str(cfg))
            err = capsys.readouterr().err
            assert_one_error_line(code, err)
            assert field.name in err.replace(str(tmp_path), "")  # the path may hold it

    @pytest.mark.parametrize("key, value, message", [
        ("min_freq", "9" * 5000, "bad value for 'min_freq': a number has more than 4300 digits"),
        ("top_n_calls", "-" + "9" * 5000, "a number has more than 4300 digits"),
        ("alpha", "x" * 5000, "bad value for 'alpha': '" + "x" * 40 + "...'"),
    ], ids=["digits", "negative-digits", "text"])
    def test_long_value_short_error(self, tmp_path, capsys, key, value, message):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(f"{key} = {value}\n", "utf-8")
        code = invoke(tmp_path / "model.json", tmp_path, tmp_path / "out", "--config", str(cfg))
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert len(err) < 300
        assert message in err


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


def assert_one_error_line(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


NOT_UTF8 = b"\xff\xfe\x80 not utf-8\n"


class TestBadInput:
    """Every bad input exits 2 with one ``error:`` line and no traceback."""

    @pytest.mark.parametrize("target", ["static_model", "events", "dot", "config"])
    def test_not_utf8(self, clean_inputs, capsys, target):
        static_path, dyn_dir, out_dir = clean_inputs
        cfg = out_dir.parent / "conf.txt"
        cfg.write_text("top_n_calls = 3\n", "utf-8")
        path = {
            "static_model": static_path,
            "events": dyn_dir / "events.jsonl",
            "dot": dyn_dir / "global.dot",
            "config": cfg,
        }[target]
        path.write_bytes(NOT_UTF8)
        code = invoke(static_path, dyn_dir, out_dir, "--config", str(cfg))
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "not valid UTF-8" in err

    def test_deeply_nested_static_model(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        static_path.write_text("[" * 100_000, "utf-8")
        assert_one_error_line(invoke(static_path, dyn_dir, out_dir), capsys.readouterr().err)

    def test_deeply_nested_event_line(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        (dyn_dir / "events.jsonl").write_text("[" * 100_000 + "\n", "utf-8")
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "line 1" in err

    def test_log_too_uniform_to_evaluate(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        # both single-symbol traces are training traces, so neither has a mutant
        (dyn_dir / "events.jsonl").write_text(
            '{"ts": 0, "src": "a", "dst": "b", "method": "GET", "path": "/x"}\n'
            '{"ts": 5000, "src": "a", "dst": "b", "method": "GET", "path": "/x"}\n'
            '{"ts": 10000, "src": "a", "dst": "b", "method": "GET", "path": "/y"}\n',
            "utf-8",
        )
        code = invoke(static_path, dyn_dir, out_dir, "--evaluate")
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "collides with a training trace" in err

    def test_malformed_dot_symbol(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        (dyn_dir / "global.dot").write_text(
            'digraph sm {\n__start -> 0;\n0 -> 1 [label="hello | 3"];\n}\n', "utf-8"
        )
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "malformed transition symbol 'hello'" in err

    def test_malformed_dot_symbol_before_log_error(self, clean_inputs, capsys):
        # a .dot file's labels are checked as it is loaded, before the log is read
        static_path, dyn_dir, out_dir = clean_inputs
        (dyn_dir / "global.dot").write_text(
            'digraph sm {\n__start -> 0;\n0 -> 1 [label="hello | 3"];\n}\n', "utf-8"
        )
        with (dyn_dir / "events.jsonl").open("a", encoding="utf-8") as log:
            log.write("{broken\n")
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "machine 'global': malformed transition symbol 'hello'" in err

    @pytest.mark.parametrize("name", ["../../escaped", "Web", "svc_1", "a b", "!!!"])
    def test_dot_service_name_not_normalized(self, clean_inputs, capsys, name):
        # such a name would reach a page's file name, and a log's would be normalized
        static_path, dyn_dir, out_dir = clean_inputs
        label = f"a→{name}:GET /x"
        (dyn_dir / "global.dot").write_text(
            f'digraph sm {{\n__start -> 0;\n0 -> 1 [label="{label} | 3"];\n}}\n', "utf-8"
        )
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert f"{dyn_dir / 'global.dot'}: label {label!r}" in err
        assert not out_dir.exists()

    def test_lone_surrogate_leaves_no_report(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        with (dyn_dir / "events.jsonl").open("a", encoding="utf-8") as log:
            log.write('{"ts": 0, "src": "ghost", "dst": "rider", "method": "GET", '
                      '"path": "/x/\\ud800"}\n')
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "lone surrogate" in err
        assert not out_dir.exists()

    def test_lone_surrogate_removes_the_parents_it_made(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        with (dyn_dir / "events.jsonl").open("a", encoding="utf-8") as log:
            log.write('{"ts": 0, "src": "ghost", "dst": "rider", "method": "GET", '
                      '"path": "/x/\\ud800"}\n')
        code = invoke(static_path, dyn_dir, out_dir / "a" / "b")
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "lone surrogate" in err
        assert not out_dir.exists()
        assert sorted(p.name for p in out_dir.parent.iterdir()) == ["dynamic",
                                                                   "static_model.json"]

    @pytest.mark.parametrize("spec_text, message", [
        (b'{"n_services": 4, "n_edges"', "not valid JSON"),
        (b"[" * 100_000, "not valid JSON"),
        (b'{"n_services": 4}', "missing key 'n_edges'"),
        (b'{"n_services": "4", "n_edges": 5}', "n_services must be an integer"),
        (b'{"n_services": 4, "n_edges": 5.0}', "n_edges must be an integer"),
        (b'{"n_services": 4, "n_edges": 5, "rng_seed": true}', "rng_seed must be an integer"),
        (b'{"n_services": 4, "n_edges": 5, "n_events": null}', "n_events must be an integer"),
        (b"[4, 5]", "must be a JSON object"),
        (NOT_UTF8, "not valid UTF-8"),
        (b'{"n_services": 2, "n_edges": 1, "n_injected_static_nc": -1, "n_events": 3}',
         "injected counts must not be negative"),
        (b'{"n_services": 5, "n_edges": 2}', "too few edges for a connected graph"),
    ], ids=["truncated", "deep", "missing-key", "string", "float", "bool", "null", "array",
            "not-utf8", "negative", "infeasible"])
    def test_bad_scenario_spec(self, tmp_path, capsys, spec_text, message):
        spec_file = tmp_path / "spec.json"
        spec_file.write_bytes(spec_text)
        code = run(["--scenario", str(spec_file), "--output_path", str(tmp_path / "gen")])
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert message in err

    LONG = "9" * 5000  # more digits than int() converts by default

    @pytest.mark.parametrize("target", ["events", "static", "dot-frequency", "dot-state"])
    def test_number_too_long(self, clean_inputs, capsys, target):
        static_path, dyn_dir, out_dir = clean_inputs
        if target == "events":
            with (dyn_dir / "events.jsonl").open("a", encoding="utf-8") as log:
                log.write(f'{{"ts": {self.LONG}, "src": "a", "dst": "b", "method": "GET", '
                          '"path": "/x"}\n')
        elif target == "static":
            static_path.write_text(
                f'{{"services": [{{"name": "a", "traceability": '
                f'{{"file": "f", "line": {self.LONG}}}}}]}}', "utf-8")
        else:
            freq, state = ("3", self.LONG) if target == "dot-state" else (self.LONG, "1")
            (dyn_dir / "global.dot").write_text(
                f'digraph sm {{\n__start -> 0;\n'
                f'0 -> {state} [label="a→b:GET /x | {freq}"];\n}}\n', "utf-8")
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "more than 4300 digits" in err
        if target.startswith("dot"):
            assert "malformed dot at line 3" in err
        elif target == "events":
            assert "malformed event log line" in err

    def test_scenario_number_too_long(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(f'{{"n_services": {self.LONG}, "n_edges": 5}}', "utf-8")
        code = run(["--scenario", str(spec_file), "--output_path", str(tmp_path / "gen")])
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "scenario spec is not valid JSON: a number has more than 4300 digits" in err

    LONG_VALUE_INPUTS = {  # case: (input, its text), which holds a value of 4,000+ characters
        "dot-label": ("dot", f'0 -> 1 [label="{"x" * 5000} | 3"]'),
        "dot-statement": ("dot", "x" * 5000),
        "dot-service-name": ("dot", f'0 -> 1 [label="a→{"X" * 5000}:GET /x | 3"]'),
        "event-method": ("events", json.dumps({"ts": 1, "src": "a", "dst": "b",
                                               "method": "X" * 5000, "path": "/x"})),
        "dot-unreachable-state": ("dot", f'{"9" * 4000} -> 0 [label="a→b:GET /x | 3"]'),
        "dot-two-transitions": ("dot", f'0 -> 1 [label="a→b:GET /{"x" * 5000} | 3"];\n'
                                       f'0 -> 0 [label="a→b:GET /{"x" * 5000} | 3"]'),
        "static-duplicate": ("static", json.dumps({"services": [{"name": "x" * 5000},
                                                               {"name": "X" * 5000}]})),
        "static-endpoint": ("static", json.dumps({
            "services": [{"name": "a"}],
            "information_flows": [{"sender": "a", "receiver": "x" * 5000}]})),
        "static-empty-name": ("static", json.dumps({"services": [{"name": "-" * 5000}]})),
        "config-min-freq": ("config", "min_freq = -" + "9" * 4000),
    }

    @pytest.mark.parametrize("case", LONG_VALUE_INPUTS)
    def test_long_value_clipped_echo(self, clean_inputs, capsys, case):
        static_path, dyn_dir, out_dir = clean_inputs
        kind, text = self.LONG_VALUE_INPUTS[case]
        cfg = out_dir.parent / "conf.txt"
        if kind == "dot":
            text = f"digraph sm {{\n__start -> 0;\n{text};\n}}"
        path = {"dot": dyn_dir / "global.dot", "events": dyn_dir / "events.jsonl",
                "static": static_path, "config": cfg}[kind]
        path.write_text(text + "\n", "utf-8")
        extra = ("--config", str(cfg)) if kind == "config" else ()
        code = invoke(static_path, dyn_dir, out_dir, *extra)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert len(err.rstrip("\n")) <= 300

    def test_long_file_name_clipped_in_symbol_error(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        (dyn_dir / ("m" * 240 + ".dot")).write_text(
            f'digraph sm {{\n__start -> 0;\n0 -> 1 [label="{"x" * 60} | 3"];\n}}\n', "utf-8")
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "malformed transition symbol" in err
        assert len(err.rstrip("\n")) <= 200

    def test_traceability_line_true(self, clean_inputs, capsys):
        # JSON true is a bool, which isinstance(..., int) would take as line 1
        static_path, dyn_dir, out_dir = clean_inputs
        model = json.loads(static_path.read_text("utf-8"))
        model["services"][0]["traceability"] = {"file": "f.py", "line": True}
        static_path.write_text(json.dumps(model), "utf-8")
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "services[0].traceability.line must be a positive integer" in err

    EVENT = {"ts": 0, "src": "a", "dst": "b", "method": "GET", "path": "/x"}

    @pytest.mark.parametrize("target, value, message", [
        ("src", None, "malformed event log line 2: src must be a string"),
        ("dst", {"Order": [1]}, "malformed event log line 2: dst must be a string"),
        ("name", None, "services[0].name must be a string"),
        ("sender", 1, "information_flows[0].sender must be a string"),
    ])
    def test_service_name_not_a_string(self, clean_inputs, capsys, target, value, message):
        # str() would turn null into a service named "none"
        static_path, dyn_dir, out_dir = clean_inputs
        if target in ("src", "dst"):
            (dyn_dir / "events.jsonl").write_text(
                json.dumps(self.EVENT) + "\n" + json.dumps({**self.EVENT, target: value}) + "\n",
                "utf-8")
        else:
            model = json.loads(static_path.read_text("utf-8"))
            part = model["services" if target == "name" else "information_flows"][0]
            part[target] = value
            static_path.write_text(json.dumps(model), "utf-8")
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert err == f"error: {message}\n"
        assert not out_dir.exists()


def test_details_parse_each_symbol_once_per_machine(tmp_path, monkeypatch):
    """Building every finding's details parses each transition's symbol at most once
    per detail machine, however many static findings there are."""
    services = [f"s{i}" for i in range(8)]
    rng = random.Random(5)
    walks = []
    for _ in range(300):
        walk, src = [], rng.choice(services)
        for _ in range(rng.randint(2, 6)):
            dst = rng.choice(services)
            walk.append(f"{src}→{dst}:GET /{rng.randint(0, 3)}")
            src = dst
        walks.append(walk)
    dyn_dir = tmp_path / "dynamic"
    dyn_dir.mkdir()
    machines = {"global": build_pta(walks), "s0": build_pta(walks[:100]),
                "s1": build_pta(walks[100:150])}
    for name, sm in machines.items():
        (dyn_dir / f"{name}.dot").write_text(serialize_state_machine(sm), "utf-8")
    # declares the first five services and no flows: every observed edge and
    # the last three services are static findings
    static_path = tmp_path / "static_model.json"
    static_path.write_text(json.dumps({"services": [{"name": s} for s in services[:5]]}), "utf-8")

    calls = []
    original = interpret.parse_symbol
    monkeypatch.setattr(interpret, "parse_symbol", lambda sym: calls.append(sym) or original(sym))
    assert invoke(static_path, dyn_dir, tmp_path / "out") == 0
    n_static = len(list((tmp_path / "out").glob("nc_static-*.html")))
    assert n_static >= 50
    assert len(calls) <= sum(len(sm.transitions) for sm in machines.values())


def test_dynamic_view_parses_each_symbol_once_per_machine(tmp_path, monkeypatch):
    """The dynamic view parses each distinct symbol of a machine once, however many
    of its transitions carry it."""
    rng = random.Random(11)
    walks = [[f"s{rng.randrange(4)}→s{rng.randrange(4)}:GET /{rng.randrange(3)}"
              for _ in range(rng.randint(2, 6))] for _ in range(200)]
    dyn_dir = tmp_path / "dynamic"
    dyn_dir.mkdir()
    machines = {"global": build_pta(walks), "s0": build_pta(walks[:80])}
    for name, sm in machines.items():
        (dyn_dir / f"{name}.dot").write_text(serialize_state_machine(sm), "utf-8")
    static_path = tmp_path / "static_model.json"
    static_path.write_text(json.dumps({"services": [{"name": "s0"}]}), "utf-8")

    calls = []
    original = detector.parse_symbol
    monkeypatch.setattr(detector, "parse_symbol", lambda sym: calls.append(sym) or original(sym))
    assert invoke(static_path, dyn_dir, tmp_path / "out") == 0
    expected = [sym for sm in machines.values() for sym in {s for _state, s in sm.transitions}]
    assert sorted(calls) == sorted(expected)
    assert len(calls) < sum(len(sm.transitions) for sm in machines.values())


def test_same_output_under_two_hash_seeds(faulty_inputs):
    """Set iteration order changes with PYTHONHASHSEED; no output may follow it."""
    static_path, dyn_dir, out_dir, _truth = faulty_inputs
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-c", "import sys; from msaconform.cli import run; sys.exit(run())",
            "--static_model_path", static_path.name, "--dynamic_models_path", dyn_dir.name,
            "--output_path", out_dir.name, "--evaluate"]
    results = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(argv, cwd=out_dir.parent, env=env, capture_output=True,
                              timeout=120)
        bundle = {str(p.relative_to(out_dir)): p.read_bytes()
                  for p in sorted(out_dir.rglob("*")) if p.is_file()}
        shutil.rmtree(out_dir)
        results.append((proc.returncode, proc.stdout, proc.stderr, bundle))
    assert results[0][0] == 0, results[0][2]
    assert "evaluation.json" in results[0][3]
    assert results[0] == results[1]


def write_inputs(root: Path, n_static: int, n_dynamic: int):
    """The 5-service scenario with the given numbers of injected findings."""
    spec = ScenarioSpec(n_services=5, n_edges=6, n_injected_static_nc=n_static,
                        n_injected_dynamic_nc=n_dynamic, n_events=200, rng_seed=7)
    model, log, _truth = generate(spec)
    dyn_dir = root / "dynamic"
    dyn_dir.mkdir(parents=True)
    (root / "static_model.json").write_text(serialize_static_model(model), "utf-8")
    (dyn_dir / "events.jsonl").write_text(log, "utf-8")
    return root / "static_model.json", dyn_dir


def listing(out_dir: Path) -> dict[str, bytes | None]:
    """Each entry's name and bytes; None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in sorted(out_dir.iterdir())}


class TestOutputDirectory:
    """A run leaves in its output directory its own files, and no file of an
    earlier run that it did not write again; other files stay."""

    def test_rerun_leaves_what_a_fresh_run_leaves(self, tmp_path, capsys):
        faulty = write_inputs(tmp_path / "faulty", 2, 1)
        clean = write_inputs(tmp_path / "clean", 0, 0)
        out_dir = tmp_path / "out"
        assert invoke(*faulty, out_dir, "--evaluate") == 0
        first = sorted(listing(out_dir))
        assert len([name for name in first if name.startswith("nc_")]) == 3
        assert {"evaluation.txt", "evaluation.json"} <= set(first)
        # every file a run writes has one of the names a later run may remove
        assert all(any(fnmatchcase(name, pattern) for pattern in cli.OUTPUT_NAMES)
                   for name in first)
        capsys.readouterr()
        assert invoke(*clean, out_dir) == 0
        assert "Detected 0 static non-conformances and 0 dynamic" in capsys.readouterr().out
        assert invoke(*clean, tmp_path / "fresh") == 0
        assert listing(out_dir) == listing(tmp_path / "fresh")

    def test_skipped_evaluation_removes_old_evaluation(self, faulty_inputs, capsys):
        static_path, dyn_dir, out_dir, _truth = faulty_inputs
        assert invoke(static_path, dyn_dir, out_dir, "--evaluate") == 0
        assert (out_dir / "evaluation.json").is_file()
        (dyn_dir / "events.jsonl").write_text(
            '{"ts": 0, "src": "a", "dst": "b", "method": "GET", "path": "/x"}\n', "utf-8")
        capsys.readouterr()
        assert invoke(static_path, dyn_dir, out_dir, "--evaluate") == 0
        assert "Skipping evaluation:" in capsys.readouterr().out
        assert not {"evaluation.txt", "evaluation.json"} & set(listing(out_dir))

    def test_other_files_survive(self, tmp_path):
        """Only the former run's own files go; files and directories that merely
        look like them stay."""
        faulty = write_inputs(tmp_path / "faulty", 2, 1)
        clean = write_inputs(tmp_path / "clean", 0, 0)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        others = {"notes.txt": b"mine", "evaluation.csv": b"1,2", "nc_x.html.bak": b"old",
                  "Index.html": b"<p>"}
        for name, data in others.items():
            (out_dir / name).write_bytes(data)
        (out_dir / "nc_dir.html").mkdir()
        assert invoke(*faulty, out_dir, "--evaluate") == 0
        assert invoke(*clean, out_dir) == 0
        assert invoke(*clean, tmp_path / "fresh") == 0
        assert listing(out_dir) == {**listing(tmp_path / "fresh"), **others, "nc_dir.html": None}

    def test_failed_write_leaves_former_files(self, faulty_inputs, monkeypatch, capsys):
        """A run whose writing fails part-way replaces none of the former files."""
        static_path, dyn_dir, out_dir, _truth = faulty_inputs
        assert invoke(static_path, dyn_dir, out_dir, "--evaluate") == 0
        before = listing(out_dir)
        made, real_mkstemp = [], tempfile.mkstemp

        def mkstemp(**kwargs):  # the third temporary file cannot be made
            if len(made) == 2:
                raise OSError("disk full")
            made.append(kwargs["prefix"])
            return real_mkstemp(**kwargs)

        monkeypatch.setattr(cli.tempfile, "mkstemp", mkstemp)
        (dyn_dir / "events.jsonl").write_text(
            '{"ts": 0, "src": "a", "dst": "b", "method": "GET", "path": "/x"}\n', "utf-8")
        capsys.readouterr()
        assert invoke(static_path, dyn_dir, out_dir) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert listing(out_dir) == before

        def counting_mkstemp(**kwargs):
            made.append(kwargs["prefix"])
            return real_mkstemp(**kwargs)

        # then a text that cannot be encoded, in a file after the first
        made.clear()
        monkeypatch.setattr(cli.tempfile, "mkstemp", counting_mkstemp)
        with (dyn_dir / "events.jsonl").open("a", encoding="utf-8") as log:
            log.write('{"ts": 1, "src": "a", "dst": "ghost", "method": "GET", '
                      '"path": "/x/\\ud800"}\n')
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "lone surrogate" in err
        assert len(made) > 1, made
        assert listing(out_dir) == before
