"""CLI contract tests: flags, progress output, summary line, exit codes."""

import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from contextlib import nullcontext
from unittest import mock
from fnmatch import fnmatchcase
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference_events import HttpEvent, as_events
from msaconform import cli, detector, events, interpret
from msaconform.automaton import serialize_state_machine
from msaconform.cli import Config, _parse_config_file, run
from msaconform.errors import InputError
from msaconform.events import parse_event_log
from msaconform.learner import LearnerConfig, build_pta
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
        assert "Detecting non-conformances" not in out
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
        "alpha": ("0.1", 0.1, ["2", "0", "banana", "1e-310"]),
        "min_freq": ("3", 3, ["-1", "2.5"]),
        "top_n_calls": ("7", 7, ["0", "seven"]),
        "include_externals": ("true", True, ["yes", "True", ""]),
        "trace_scope": ("per_service", "per_service", ["all", ""]),
    }

    @pytest.mark.parametrize("field", Config._fields)
    def test_every_field(self, tmp_path, capsys, field):
        text, value, bad_texts = self.FIELD_CASES[field]
        default = Config._field_defaults[field]
        cfg = tmp_path / "conf.txt"
        cfg.write_text(f"{field} = {text}\n", "utf-8")
        parsed = getattr(_parse_config_file(cfg), field)
        assert parsed == value != default
        assert type(parsed) is type(default)
        for bad in bad_texts:
            cfg.write_text(f"{field} = {bad}\n", "utf-8")
            code = invoke(tmp_path / "model.json", tmp_path, tmp_path / "out", "--config", str(cfg))
            err = capsys.readouterr().err
            assert_one_error_line(code, err)
            assert field in err.replace(str(tmp_path), "")  # the path may hold it

    def test_learner_defaults_have_one_source(self):
        cfg, learner_cfg = Config(), LearnerConfig()
        assert (cfg.alpha, cfg.min_freq) == (learner_cfg.alpha, learner_cfg.min_freq)

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
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: missing required flags: --output_path"]

    def test_empty_scenario_path(self, tmp_path, capsys, monkeypatch):
        """An empty spec path asks for a scenario too: it names no file, which
        is the error, and the analysis flags stay refused."""
        monkeypatch.chdir(tmp_path)
        code = run(["--scenario", "", "--output_path", str(tmp_path / "gen")])
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert err == "error: scenario spec file not found: \n"
        assert not (tmp_path / "gen").exists()
        assert run(["--scenario", ""]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: missing required flags: --output_path")
        assert run(["--scenario", "", "--output_path", "gen", "--evaluate"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: --scenario does not take --evaluate")

    @pytest.mark.parametrize("spec", ["missing.json", "specs", "./specs/"])
    def test_scenario_spec_not_a_file(self, tmp_path, capsys, monkeypatch, spec):
        """A spec path that names no file, or a directory, is named as given."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "specs").mkdir()
        code = run(["--scenario", spec, "--output_path", "gen"])
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert err == f"error: scenario spec file not found: {spec}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["specs"]

    @pytest.mark.parametrize("flags", [
        ["--config", "bad.conf"],
        ["--evaluate", "--fail-on-nc", "--static_model_path", "x"],
        ["--dynamic_models_path", "d"],
    ])
    def test_scenario_rejects_analysis_flags(self, tmp_path, capsys, flags):
        """The flags are refused before any file is read: neither the spec nor
        the config exists."""
        out_dir = tmp_path / "gen"
        code = run(["--scenario", str(tmp_path / "none.json"), "--output_path", str(out_dir),
                    *flags])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        given = [flag for flag in cli.SCENARIO_REJECTS if flag in flags]
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: --scenario does not take {', '.join(given)}"]
        assert not out_dir.exists()


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

    def test_not_utf8_in_a_later_chunk(self, clean_inputs, capsys):
        """The log is read in chunks; a bad byte past the first is named by its
        offset in the whole file, as when the file was decoded whole."""
        static_path, dyn_dir, out_dir = clean_inputs
        log = dyn_dir / "events.jsonl"
        good = log.read_bytes() * 40
        assert len(good) > 2 * events._BLOCK_CHARS
        log.write_bytes(good + NOT_UTF8)
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert err == f"error: {log}: not valid UTF-8 (invalid start byte at byte {len(good)})\n"

    def test_not_utf8_after_a_malformed_line(self, clean_inputs, capsys):
        """A byte that is not UTF-8 anywhere in the log is the error, even after
        a malformed line in an earlier chunk."""
        static_path, dyn_dir, out_dir = clean_inputs
        log = dyn_dir / "events.jsonl"
        good = b"{broken\n" + log.read_bytes() * 40
        log.write_bytes(good + NOT_UTF8)
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert err == f"error: {log}: not valid UTF-8 (invalid start byte at byte {len(good)})\n"

    def test_config_line_without_equals(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        cfg = out_dir.parent / "conf.txt"
        cfg.write_text("alpha = 0.1\ntop_n_calls 3\n", "utf-8")
        code = invoke(static_path, dyn_dir, out_dir, "--config", str(cfg))
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert err == f"error: {cfg}:2: expected 'key = value'\n"
        assert not out_dir.exists()

    def test_dynamic_models_path_is_a_file(self, clean_inputs, capsys):
        static_path, dyn_dir, out_dir = clean_inputs
        log = dyn_dir / "events.jsonl"
        code = invoke(static_path, log, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert err == f"error: dynamic models path is not a directory: {log}\n"
        assert not out_dir.exists()

    def test_static_model_missing(self, clean_inputs, capsys):
        _static_path, dyn_dir, out_dir = clean_inputs
        missing = out_dir.parent / "no_such_model.json"
        code = invoke(missing, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert err == f"error: static model file not found: {missing}\n"
        assert not out_dir.exists()

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

    def test_dot_label_path_with_a_line_break(self, clean_inputs, capsys):
        # the path's line end would break the finding page's PlantUML line
        static_path, dyn_dir, out_dir = clean_inputs
        label = "svc-00→zz-new:GET /x\ninjected"
        (dyn_dir / "global.dot").write_text(
            f'digraph sm {{\n__start -> 0;\n0 -> 1 [label="{label} | 5"];\n}}\n', "utf-8"
        )
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert f"machine 'global': malformed transition symbol {label!r}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("escape", ["\\n", "\\u2028"])
    def test_log_path_with_a_line_break(self, clean_inputs, capsys, escape):
        static_path, dyn_dir, out_dir = clean_inputs
        log = dyn_dir / "events.jsonl"
        line_no = len(log.read_text("utf-8").splitlines()) + 1
        with log.open("a", encoding="utf-8") as out:
            out.write('{"ts": 1, "src": "a", "dst": "b", "method": "GET", '
                      f'"path": "/x{escape}y"}}\n')
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert err == (f"error: malformed event log line {line_no}: "
                       "path must not hold a line break\n")
        assert not out_dir.exists()

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


def test_each_findings_details_die_before_the_next_are_made(tmp_path, monkeypatch):
    """The report holds one static finding's details, and so one sub-machine,
    at a time: when a finding's details are made, no earlier finding's live."""
    alive_before = []  # per static finding: how many earlier details still live
    refs = []
    original = interpret.static_nc_details

    def static_nc_details(*args, **kwargs):
        alive_before.append(sum(ref() is not None for ref in refs))
        details = original(*args, **kwargs)
        refs.append(weakref.ref(details))
        if details.submachine is not None:
            refs.append(weakref.ref(details.submachine))
        return details

    monkeypatch.setattr(interpret, "static_nc_details", static_nc_details)
    assert invoke(*write_inputs(tmp_path, 3, 1), tmp_path / "out") == 0
    assert len(alive_before) == 3
    assert len(refs) > len(alive_before)  # some findings have a sub-machine
    assert alive_before == [0, 0, 0]


def test_each_page_is_written_before_the_next_findings_details_are_made(tmp_path,
                                                                       monkeypatch):
    """The report keeps no page: when a static finding's details are made,
    the diagram, the index page and every earlier finding's page are already
    in their temporary files."""
    out_dir = tmp_path / "out"
    written = []  # per static finding: its id and the temporary files then
    original = interpret.static_nc_details

    def static_nc_details(sm, nc, top_n):
        written.append((nc.id, len(list(out_dir.glob("*.tmp")))))
        return original(sm, nc, top_n)

    monkeypatch.setattr(interpret, "static_nc_details", static_nc_details)
    assert invoke(*write_inputs(tmp_path, 3, 1), out_dir) == 0
    ids = sorted(path.name[len("nc_"):-len(".html")] for path in out_dir.glob("nc_*.html"))
    assert len(written) == 3 and len(ids) == 4
    assert written == [(nc_id, 2 + ids.index(nc_id)) for nc_id, _tmps in written]


def test_load_dot_peak_memory_bounded(tmp_path):
    """Loading a ``.dot`` machine holds, beyond the machine it keeps, at most
    about three times the text (2.9 times measured, 5.9 when the text lived
    through the reachability check beside a set and a frozenset of the
    states): the text dies once its statements are read, each state id is
    one ``int``, and the reachability check walks two flat lists. It read
    2.4 times when the machine kept a frozenset of its states, which made
    the kept machine 0.52 MB larger and the peak 0.35 MB higher."""
    rng = random.Random(3)
    services = [f"s{i}" for i in range(12)]
    walks = []
    for _ in range(2000):
        walk, src = [], rng.choice(services)
        for _ in range(rng.randint(2, 8)):
            dst = rng.choice(services)
            walk.append(f"{src}→{dst}:GET /{rng.randint(0, 3)}")
            src = dst
        walks.append(walk)
    text = serialize_state_machine(build_pta(walks))
    dot_file = tmp_path / "global.dot"
    dot_file.write_text(text, "utf-8")
    tracemalloc.start()
    try:
        machine = cli._load_dot(dot_file)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(machine.transitions) > 8000
    assert peak < kept + 3 * len(text)


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
    """Each entry under ``out_dir``, at any depth, by its relative path: its
    bytes, or None for a directory."""
    return {str(p.relative_to(out_dir)): p.read_bytes() if p.is_file() else None
            for p in sorted(out_dir.rglob("*"))}


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
        patch_mkstemp(monkeypatch, fail_at=2)
        (dyn_dir / "events.jsonl").write_text(
            '{"ts": 0, "src": "a", "dst": "b", "method": "GET", "path": "/x"}\n', "utf-8")
        capsys.readouterr()
        assert invoke(static_path, dyn_dir, out_dir) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert listing(out_dir) == before

        # then a text that cannot be encoded, in a file after the first: it
        # fails while the report is rendered, after the files before it were
        # put, and each of their temporary files goes
        made = patch_mkstemp(monkeypatch)
        with (dyn_dir / "events.jsonl").open("a", encoding="utf-8") as log:
            log.write('{"ts": 1, "src": "a", "dst": "ghost", "method": "GET", '
                      '"path": "/x/\\ud800"}\n')
        code = invoke(static_path, dyn_dir, out_dir)
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "lone surrogate" in err
        assert len(made) >= 2  # the diagram and the index page at least
        assert not [tmp for tmp in made if os.path.lexists(tmp)]
        assert listing(out_dir) == before

    def test_failed_scenario_write_leaves_former_scenario(self, tmp_path, monkeypatch, capsys):
        """A scenario whose writing fails part-way replaces none of the former
        scenario's files."""
        gen_dir = tmp_path / "gen"
        assert generate_scenario(tmp_path, gen_dir, rng_seed=1) == 0
        before = listing(gen_dir)
        patch_mkstemp(monkeypatch, fail_at=2)
        capsys.readouterr()
        assert generate_scenario(tmp_path, gen_dir, rng_seed=2) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert listing(gen_dir) == before

    def test_failed_scenario_write_removes_the_directories_it_made(self, tmp_path, monkeypatch,
                                                                  capsys):
        patch_mkstemp(monkeypatch, fail_at=2)
        assert generate_scenario(tmp_path, tmp_path / "gen" / "a" / "b", rng_seed=1) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert not (tmp_path / "gen").exists()

    # calls to os.replace: 2 puts the first new file in place, 3 moves the
    # second former file aside, 6 puts in place a file that had no former one
    # after another such file is in place (an analysis) or the third file (a
    # scenario)
    @pytest.mark.parametrize("fail_at", [2, 3, 6])
    def test_failed_replace_leaves_former_files(self, tmp_path, monkeypatch, capsys, fail_at):
        out_dir = tmp_path / "out"
        assert invoke(*write_inputs(tmp_path / "clean", 0, 0), out_dir) == 0
        faulty = write_inputs(tmp_path / "faulty", 2, 1)
        before = listing(out_dir)
        patch_replace(monkeypatch, fail_at)
        capsys.readouterr()
        assert invoke(*faulty, out_dir) == 2
        assert capsys.readouterr().err == "error: rename failed\n"
        assert listing(out_dir) == before
        assert not list(out_dir.rglob("*.tmp"))

    def test_failed_move_into_staging_leaves_former_files(self, tmp_path, monkeypatch, capsys):
        """The second move of a former file into the staging directory fails:
        the first comes back, and neither temporary files nor the staging
        directory stay."""
        out_dir = tmp_path / "out"
        assert invoke(*write_inputs(tmp_path / "faulty", 2, 1), out_dir) == 0
        before = listing(out_dir)
        staged = []
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).parent.name.endswith(".tmp"):  # into the staging directory
                staged.append(dst)
                if len(staged) == 2:
                    raise OSError("rename failed")
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace)
        capsys.readouterr()
        assert invoke(*write_inputs(tmp_path / "clean", 0, 0), out_dir) == 2
        assert capsys.readouterr().err == "error: rename failed\n"
        assert len(staged) == 2
        assert listing(out_dir) == before
        assert not list(out_dir.rglob("*.tmp"))

    def test_failed_retire_leaves_output_directory_as_it_was(self, tmp_path, monkeypatch,
                                                             capsys):
        """A stale page of a former run that cannot be retired fails the run,
        and the output directory stays as it was: the stale page is there, and
        neither the new run's evaluation files nor a temporary entry are."""
        clean = write_inputs(tmp_path / "clean", 0, 0)
        out_dir = tmp_path / "out"
        assert invoke(*clean, out_dir) == 0
        (out_dir / "nc_9.html").write_bytes(b"<p>stale</p>")
        before = listing(out_dir)
        real_unlink, real_replace = Path.unlink, os.replace

        def unlink(path, *args, **kwargs):  # the root user may unlink any file
            if path.name == "nc_9.html":
                raise PermissionError("permission denied")
            real_unlink(path, *args, **kwargs)

        def replace(src, dst):
            if Path(src).name == "nc_9.html":
                raise PermissionError("permission denied")
            real_replace(src, dst)

        monkeypatch.setattr(Path, "unlink", unlink)
        monkeypatch.setattr(cli.os, "replace", replace)
        capsys.readouterr()
        code = invoke(*clean, out_dir, "--evaluate")
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert err == "error: permission denied\n"
        assert listing(out_dir) == before
        assert not list(out_dir.rglob("*.tmp"))
        monkeypatch.undo()
        assert invoke(*clean, out_dir, "--evaluate") == 0  # the same run, unhindered
        after = set(listing(out_dir))
        assert {"evaluation.txt", "evaluation.json"} <= after and "nc_9.html" not in after

    def test_failed_evaluation_leaves_former_bundle(self, clean_inputs, capsys):
        """An evaluation that fails after the pages are put, because every
        mutant collides with a training trace, leaves the former bundle as
        it was."""
        static_path, dyn_dir, out_dir = clean_inputs
        assert invoke(static_path, dyn_dir, out_dir, "--evaluate") == 0
        before = listing(out_dir)
        assert "evaluation.json" in before
        (dyn_dir / "events.jsonl").write_text(
            '{"ts": 0, "src": "a", "dst": "b", "method": "GET", "path": "/x"}\n'
            '{"ts": 5000, "src": "a", "dst": "b", "method": "GET", "path": "/x"}\n'
            '{"ts": 10000, "src": "a", "dst": "b", "method": "GET", "path": "/y"}\n',
            "utf-8",
        )
        capsys.readouterr()
        code = invoke(static_path, dyn_dir, out_dir, "--evaluate")
        err = capsys.readouterr().err
        assert_one_error_line(code, err)
        assert "collides with a training trace" in err
        assert listing(out_dir) == before

    @pytest.mark.parametrize("flags, exit_code", [((), 0), (("--fail-on-nc",), 3)])
    def test_failed_cleanup_after_commit_warns(self, tmp_path, monkeypatch, capsys, flags,
                                               exit_code):
        """Once every new file is in place, a staged former file that cannot
        be deleted leaves the staging directory, one warning line that names
        it, and the run's own exit code and files."""
        faulty = write_inputs(tmp_path / "faulty", 2, 1)
        out_dir = tmp_path / "out"
        assert invoke(*faulty, out_dir, "--evaluate") == 0
        real_unlink = os.unlink

        def unlink(path):
            if Path(path).parent.name.endswith(".tmp"):  # in the staging directory
                raise PermissionError("permission denied")
            real_unlink(path)

        monkeypatch.setattr(cli.os, "unlink", unlink)
        capsys.readouterr()
        assert invoke(*faulty, out_dir, "--evaluate", *flags) == exit_code
        out, err = capsys.readouterr()
        [staging] = [path for path in out_dir.iterdir() if path.name.endswith(".tmp")]
        assert err == (f"warning: could not remove {staging}, which holds the former files: "
                       "permission denied\n")
        monkeypatch.undo()
        assert invoke(*faulty, tmp_path / "fresh", "--evaluate") == 0
        assert out == capsys.readouterr().out
        assert {name: data for name, data in listing(out_dir).items()
                if not name.startswith(staging.name)} == listing(tmp_path / "fresh")

    @pytest.mark.parametrize("fail_at", [2, 3, 6])
    def test_failed_scenario_replace_leaves_former_scenario(self, tmp_path, monkeypatch, capsys,
                                                            fail_at):
        gen_dir = tmp_path / "gen"
        assert generate_scenario(tmp_path, gen_dir, rng_seed=1) == 0
        before = listing(gen_dir)
        patch_replace(monkeypatch, fail_at)
        capsys.readouterr()
        assert generate_scenario(tmp_path, gen_dir, rng_seed=2) == 2
        assert capsys.readouterr().err == "error: rename failed\n"
        assert listing(gen_dir) == before
        assert not list(gen_dir.rglob("*.tmp"))


def patch_replace(monkeypatch, fail_at: int) -> None:
    """Make the call to ``os.replace`` numbered ``fail_at``, counting from 1,
    fail; the others rename as usual."""
    calls = []
    real_replace = os.replace

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == fail_at:
            raise OSError("rename failed")
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace)


def generate_scenario(tmp_path: Path, out_dir: Path, rng_seed: int) -> int:
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"n_services": 4, "n_edges": 5, "n_injected_static_nc": 1,
                                     "n_events": 100, "rng_seed": rng_seed}), "utf-8")
    return run(["--scenario", str(spec_file), "--output_path", str(out_dir)])


REAL_MKSTEMP = tempfile.mkstemp


def patch_mkstemp(monkeypatch, fail_at: int | None = None) -> list[str]:
    """The paths of the temporary files ``cli`` makes from now on, in order;
    the one numbered ``fail_at``, counting from 0, fails with 'disk full'."""
    made: list[str] = []

    def mkstemp(**kwargs):
        if len(made) == fail_at:
            raise OSError("disk full")
        fd, tmp = REAL_MKSTEMP(**kwargs)
        made.append(tmp)
        return fd, tmp

    monkeypatch.setattr(cli.tempfile, "mkstemp", mkstemp)
    return made


# the entries a former output directory may hold: former report files, stale
# pages and evaluation files, entries that merely look like pages, and an
# unrelated file
FORMER_ENTRIES = ("architecture.puml", "index.html", "nc_1.html", "nc_7.html", "evaluation.txt",
                  "evaluation.json", "nc_dir.html", "nc_dirlink.html", "nc_filelink.html",
                  "nc_dangling.html", "notes.txt")
NEW_FILES = ("architecture.puml", "index.html", "nc_1.html", "nc_2.html", "evaluation.txt",
             "dynamic_models/events.jsonl")
FAILING_CALLS = {"mkstemp": tempfile, "mkdtemp": tempfile, "replace": os}


def make_former(out_dir: Path, names) -> None:
    out_dir.mkdir()
    for name in names:
        path = out_dir / name
        if name == "nc_dir.html":  # a directory named like a page, with a page in it
            path.mkdir()
            (path / "nc_3.html").write_bytes(b"inner")
        elif name == "nc_dirlink.html":
            (out_dir / "pages").mkdir()
            (out_dir / "pages" / "p.html").write_bytes(b"page")
            path.symlink_to("pages", target_is_directory=True)
        elif name == "nc_filelink.html":
            (out_dir / "target.bin").write_bytes(b"target")
            path.symlink_to("target.bin")
        elif name == "nc_dangling.html":
            path.symlink_to("missing")
        else:
            path.write_bytes(b"former " + name.encode())


def tree(root: Path) -> dict[str, object] | None:
    """Each entry under ``root``, by its relative path: a link's target, a
    file's bytes, or None for a directory; None if ``root`` is missing."""
    if not root.exists():
        return None
    entries = {}
    for dirpath, dirnames, filenames in os.walk(root):  # no link is followed
        for name in dirnames + filenames:
            path = Path(dirpath, name)
            entries[str(path.relative_to(root))] = (
                ("link", os.readlink(path)) if path.is_symlink()
                else path.read_bytes() if path.is_file() else None)
    return entries


def failing(real, k: int):
    """``real``, but its call numbered ``k``, counting from 0, fails."""
    calls = []

    def call(*args, **kwargs):
        calls.append(args)
        if len(calls) == k + 1:
            raise OSError("injected")
        return real(*args, **kwargs)

    return call


class BodyFailed(Exception):
    """Raised by a transaction's body, as a page that cannot be encoded or an
    evaluation that fails after the pages are put would raise."""


@settings(max_examples=300, deadline=None)
@given(former=st.none() | st.lists(st.sampled_from(FORMER_ENTRIES), unique=True),
       new=st.lists(st.sampled_from(NEW_FILES), min_size=1, unique=True),
       retire=st.sampled_from([cli.OUTPUT_NAMES, ()]),
       fail=st.none() | st.tuples(st.sampled_from(sorted(FAILING_CALLS)), st.integers(0, 8)),
       stop=st.none() | st.integers(0, len(NEW_FILES)))
# the third rename fails, after the first of two stale entries has moved aside
@example(former=["nc_7.html", "evaluation.json"], new=["index.html"], retire=cli.OUTPUT_NAMES,
         fail=("replace", 2), stop=None)
# the body fails after a file in a new directory and a file of a former name are put
@example(former=["index.html", "nc_7.html"], new=["dynamic_models/events.jsonl", "index.html",
                                                  "nc_1.html"],
         retire=cli.OUTPUT_NAMES, fail=None, stop=2)
def test_write_files_is_all_or_nothing(tmp_path_factory, former, new, retire, fail, stop):
    """A failing call, or a body that raises after its ``stop``-th put, leaves
    the former output directory as it was, with no temporary entry; a success
    leaves the new files and every former entry that was not written and
    either matches no ``retire`` pattern or is a directory, or a link to one."""
    out_dir = tmp_path_factory.mktemp("write") / "out"
    if former is not None:
        make_former(out_dir, former)
    before = tree(out_dir)
    files = {name: f"new {name}".encode() for name in new}
    kept = {top for top in (before or ()) if "/" not in top and top not in files
            and (not any(fnmatchcase(top, pattern) for pattern in retire)
                 or (out_dir / top).is_dir())}
    if fail:
        name, k = fail
        module = FAILING_CALLS[name]
        patch = mock.patch.object(module, name, failing(getattr(module, name), k))
    with patch if fail else nullcontext():
        try:
            with cli._write_files(out_dir, retire) as put:
                for name, data in list(files.items())[:stop]:
                    put(name, data)
                if stop is not None:
                    raise BodyFailed
        except (OSError, BodyFailed) as exc:
            assert isinstance(exc, BodyFailed) or (fail and str(exc) == "injected")
            assert tree(out_dir) == before
            assert not out_dir.exists() or not list(out_dir.rglob("*.tmp"))
            return
    assert tree(out_dir) == {
        **{rel: entry for rel, entry in (before or {}).items() if rel.split("/")[0] in kept},
        **({"dynamic_models": None} if "dynamic_models/events.jsonl" in files else {}),
        **files}


# the calls that make a directory or write a file, known by their module where
# a method of the same name is no write (str.replace), else by their name
MODULE_WRITES = {"os.fdopen", "os.replace", "tempfile.mkstemp", "tempfile.mkdtemp"}
METHOD_WRITES = {"mkdir", "rmdir", "write_text", "write_bytes", "unlink"}
WRITERS = {  # the only functions allowed to make them, and what each may call
    "cli._write_files": {"open", *MODULE_WRITES, *METHOD_WRITES},
}


def write_call(call: ast.Call) -> str | None:
    """What ``call`` calls, if it makes a directory or writes a file."""
    func = call.func
    if isinstance(func, ast.Name):
        return "open" if func.id == "open" else None  # the built-in
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and f"{func.value.id}.{func.attr}" in MODULE_WRITES:
            return f"{func.value.id}.{func.attr}"
        if func.attr in METHOD_WRITES:
            return func.attr
    return None


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def write_calls():
    """``(module.function, call)`` for each file write in ``src/msaconform``;
    code outside any function counts as ``<module>``."""
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        scopes = []
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                scopes.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                scopes += [(f"{node.name}.{item.name}" if isinstance(item, FUNCTIONS)
                            else node.name, item) for item in node.body]
            else:
                scopes.append(("<module>", node))
        for name, scope in scopes:
            for node in ast.walk(scope):
                call = isinstance(node, ast.Call) and write_call(node)
                if call:
                    yield f"{path.stem}.{name}", call


def writes_outside_the_writer() -> list[str]:
    """``module.function: call`` for each file write that ``WRITERS`` does not allow."""
    return [f"{qualname}: {call}" for qualname, call in write_calls()
            if call not in WRITERS.get(qualname, ())]


def test_one_writer():
    """``cli._write_files`` is the only code that makes a directory or writes a
    file, so every output is written whole or not at all."""
    assert writes_outside_the_writer() == []


def test_writer_allowlist_is_needed():
    """Every ``WRITERS`` entry names a function of ``src/msaconform`` that
    makes at least one of the calls it allows, so no stale exception stays."""
    made = set(write_calls())
    assert sorted(qualname for qualname, allowed in WRITERS.items()
                  if not any((qualname, call) in made for call in allowed)) == []


# pieces of a text file: line ends of every kind, multi-byte characters, and
# characters that end a line only for str.splitlines
FILE_PIECES = [b"a", b"xyz ", b"\n", b"\r", b"\r\n", b"\r\r\n\n", "\u00e9".encode(),
               "\u6f22".encode(), "\U0001f600".encode(), "\x85".encode(), "\u2028".encode(),
               b"\x0b"]


@settings(max_examples=300, deadline=None)
@given(bom=st.booleans(), pieces=st.lists(st.sampled_from(FILE_PIECES), max_size=30),
       size=st.integers(1, 9))
@example(bom=False, pieces=[b"a", b"\r\n", b"a"], size=2)  # "\r\n" across a chunk boundary
@example(bom=False, pieces=[b"a", "\u6f22".encode()], size=1)  # 3 bytes, one character
@example(bom=True, pieces=[b"a"], size=1)
@example(bom=False, pieces=[b"a", b"\r"], size=1)  # a lone "\r", last
@example(bom=False, pieces=[], size=1)
def test_chunks_join_to_the_whole_text(tmp_path_factory, bom, pieces, size):
    """The log's chunks, joined, are the text ``_read_input`` gives the whole
    file, newline translation included, and none is longer than asked."""
    path = tmp_path_factory.mktemp("chunks") / "events.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" * bom + b"".join(pieces))
    with mock.patch.object(events, "_BLOCK_CHARS", size):
        chunks = list(cli._read_chunks(path))
    assert "".join(chunks) == cli._read_input(path)
    assert all(0 < len(chunk) <= size for chunk in chunks)


def event_line(ts: int, path_chars: int) -> str:
    """An event line whose path is ``path_chars`` characters long."""
    return json.dumps({"ts": ts, "src": "a", "dst": "b", "method": "GET",
                       "path": "/" + "x" * (path_chars - 1)})


@pytest.mark.parametrize("last", ["", "{bad\r\n"], ids=["valid", "malformed last line"])
def test_line_longer_than_a_chunk(tmp_path, last):
    """A log read in chunks, whose second line is longer than two chunks and
    whose first line's "\\r\\n" ends the first chunk, gives the events, or the
    error at the line, of the whole text given at once."""
    size = events._BLOCK_CHARS
    first = event_line(1, size - len(event_line(1, 1)))  # its "\r" ends the first chunk
    lines = [first, event_line(2, 2 * size + 100), event_line(3, 5), event_line(4, 5)]
    path = tmp_path / "events.jsonl"
    path.write_bytes(("\r\n".join(lines) + "\r\n" + last).encode())
    assert path.read_bytes()[size - 1:size + 1] == b"\r\n"
    chunk = next(cli._read_chunks(path))
    assert (len(chunk), chunk[-1]) == (size, "\n")
    outcomes = []
    for read in (cli._read_event_log, lambda path: parse_event_log(cli._read_input(path))):
        try:
            outcomes.append(as_events(read(path)))
        except InputError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ("malformed event log line 5: Expecting property name enclosed in "
                           "double quotes: line 1 column 2 (char 1)" if last else
                           [HttpEvent(ts, "a", "b", "GET", json.loads(text)["path"])
                            for ts, text in enumerate(lines, 1)])
