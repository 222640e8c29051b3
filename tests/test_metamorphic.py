"""Whole-run relations: two runs of the same program that must write the same
bytes, though they take different paths through it. Unlike the golden
digests, a relation compares two runs of the current code, so it survives
a change meant to alter the report.

The learned machine as ``.dot``: the global machine a run learns from the
log, written with ``serialize_state_machine`` as ``global.dot`` beside that
log, is loaded instead of learned, and the report is the same. This runs
the ``.dot`` parser and the call index of a parsed machine against those of
a learned one, on benchmark inputs (seed 1).
"""

import shutil

import pytest

from bundle_digests import load_workloads
from msaconform import cli
from msaconform.automaton import serialize_state_machine


def written(out_dir):
    """Every file a run wrote, by its path under ``out_dir``."""
    return {path.relative_to(out_dir).as_posix(): path.read_bytes()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("scope", ["global", "both"])
def test_learned_machine_as_dot_gives_the_same_bundle(monkeypatch, tmp_path, scope):
    workloads = load_workloads()
    spec = workloads.WORKLOADS["walk-eval"]
    inputs = workloads.make_inputs(cli.run, spec, 1, tmp_path / "in")
    config = tmp_path / "scope.conf"
    config.write_text(f"trace_scope = {scope}\n", "utf-8")
    learned = {}

    def recording(traces, cfg, name=None):
        learned[name] = machine = learn(traces, cfg, name=name)
        return machine

    def run(dynamic_dir, out_dir):
        argv = ["--static_model_path", str(inputs.static_model),
                "--dynamic_models_path", str(dynamic_dir), "--output_path", str(out_dir),
                "--config", str(config), "--evaluate"]
        assert cli.run(argv) == 0
        return written(out_dir)

    learn = cli.learn
    monkeypatch.setattr(cli, "learn", recording)
    from_log = run(inputs.dynamic_dir, tmp_path / "from-log")
    monkeypatch.undo()
    with_dot = tmp_path / "with-dot"
    shutil.copytree(inputs.dynamic_dir, with_dot)
    (with_dot / "global.dot").write_text(serialize_state_machine(learned["global"]), "utf-8")
    from_dot = run(with_dot, tmp_path / "from-dot")
    assert "evaluation.json" in from_dot and any(name.endswith(".html") for name in from_dot)
    assert from_dot == from_log
