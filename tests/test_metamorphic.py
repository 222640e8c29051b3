"""Whole-run relations: two runs of the same program that must write the same
bytes, though they take different paths through it. Unlike the golden
digests, a relation compares two runs of the current code, so it survives
a change meant to alter the report. Each relation runs on benchmark inputs
(seed 1) and compares the exit code, stdout and every file written.

- The learned machine as ``.dot``: the global machine a run learns from the
  log, written with ``serialize_state_machine`` as ``global.dot`` beside
  that log, is loaded instead of learned, and the report is the same. This
  runs the ``.dot`` parser and the call index of a parsed machine against
  those of a learned one.
- Log re-encoding: each log line written as another JSON text of the same
  object (keys shuffled, spaces before commas and around colons, every
  ``/`` escaped, spaces around the line, ``\\r\\n`` line ends) gives the
  same report. The leading space makes the pattern scan refuse every
  block, so this runs the line-by-line parse against the pattern scan at
  full scale.
- ``.dot`` statement order: the transitions of a ``global.dot`` in another
  order, with ``__start`` kept first, give the same report. A state
  machine's transitions are a mapping, so no output may follow the order
  they were read in.
- Session gap: any ``session_gap_ms`` at least the log's gap within a
  session and less than its gap between sessions cuts the same sessions
  as the default, and gives the same report. The gap between sessions
  itself joins them all, and changes the report, so the relation can fail.
"""

import contextlib
import io
import json
import random
import shutil

import pytest

from bundle_digests import load_workloads
from msaconform import cli, events
from msaconform.automaton import serialize_state_machine


def written(out_dir):
    """Every file a run wrote, by its path under ``out_dir``."""
    return {path.relative_to(out_dir).as_posix(): path.read_bytes()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def make_inputs(name, tmp_path):
    """The seed-1 inputs of benchmark workload ``name`` and its spec."""
    workloads = load_workloads()
    spec = workloads.WORKLOADS[name]
    return spec, workloads.make_inputs(cli.run, spec, 1, tmp_path / "in")


def analyse(spec, inputs, dynamic_dir, out_dir, *flags):
    """The exit code, stdout and written files of one run on ``dynamic_dir``,
    with ``--evaluate`` where ``spec`` asks for it."""
    argv = ["--static_model_path", str(inputs.static_model),
            "--dynamic_models_path", str(dynamic_dir), "--output_path", str(out_dir), *flags]
    if spec.evaluate:
        argv.append("--evaluate")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.run(argv)
    return code, out.getvalue(), written(out_dir)


@pytest.mark.parametrize("scope", ["global", "both"])
def test_learned_machine_as_dot_gives_the_same_bundle(monkeypatch, tmp_path, scope):
    spec, inputs = make_inputs("walk-eval", tmp_path)
    config = tmp_path / "scope.conf"
    config.write_text(f"trace_scope = {scope}\n", "utf-8")
    learned = {}

    def recording(traces, cfg, name=None):
        learned[name] = machine = learn(traces, cfg, name=name)
        return machine

    learn = cli.learn
    monkeypatch.setattr(cli, "learn", recording)
    from_log = analyse(spec, inputs, inputs.dynamic_dir, tmp_path / "from-log",
                       "--config", str(config))
    monkeypatch.undo()
    with_dot = tmp_path / "with-dot"
    shutil.copytree(inputs.dynamic_dir, with_dot)
    (with_dot / "global.dot").write_text(serialize_state_machine(learned["global"]), "utf-8")
    from_dot = analyse(spec, inputs, with_dot, tmp_path / "from-dot", "--config", str(config))
    code, _out, files = from_dot
    assert code == 0
    assert "evaluation.json" in files and any(name.endswith(".html") for name in files)
    assert from_dot == from_log


def reencoded(line: str, rng: random.Random) -> str:
    """``line``'s JSON object written another way: its keys shuffled, a space
    before each comma and around each colon, each ``/`` escaped as ``\\/``
    (outside strings JSON has none), and a space on either side."""
    obj = json.loads(line)
    keys = list(obj)
    rng.shuffle(keys)
    text = json.dumps({key: obj[key] for key in keys}, separators=(" ,", " : "))
    return " " + text.replace("/", "\\/") + " "


@pytest.mark.parametrize("workload", ["scenario-50x150", "walk-eval"])
def test_reencoded_log_gives_the_same_bundle(monkeypatch, tmp_path, workload):
    spec, inputs = make_inputs(workload, tmp_path)
    scans = []  # one entry per block the pattern scan read
    read_calls = events._read_calls

    def counting(*args):
        scans.append(None)
        return read_calls(*args)

    monkeypatch.setattr(events, "_read_calls", counting)
    as_written = analyse(spec, inputs, inputs.dynamic_dir, tmp_path / "as-written")
    scanned = len(scans)
    lines = (inputs.dynamic_dir / "events.jsonl").read_text("utf-8").splitlines()
    rng = random.Random(1)
    other = tmp_path / "reencoded"
    other.mkdir()
    (other / "events.jsonl").write_text("".join(reencoded(line, rng) + "\r\n" for line in lines),
                                        "utf-8", newline="")
    as_reencoded = analyse(spec, inputs, other, tmp_path / "as-reencoded")
    assert scanned > 0 and len(scans) == scanned  # the pattern scan, then only line by line
    assert as_written[0] == 0 and any(name.endswith(".html") for name in as_written[2])
    assert as_reencoded == as_written


def test_dot_statement_order_gives_the_same_bundle(tmp_path):
    spec, inputs = make_inputs("dot-report", tmp_path)
    header, start, *transitions, end = (inputs.dynamic_dir / "global.dot").read_text(
        "utf-8").splitlines()
    assert start.startswith("__start") and end == "}"
    shuffled = transitions.copy()
    random.Random(1).shuffle(shuffled)
    assert shuffled != transitions
    other = tmp_path / "shuffled"
    other.mkdir()
    (other / "global.dot").write_text("\n".join([header, start, *shuffled, end]) + "\n", "utf-8")
    in_order = analyse(spec, inputs, inputs.dynamic_dir, tmp_path / "in-order")
    assert in_order[0] == 0 and any(name.endswith(".html") for name in in_order[2])
    assert analyse(spec, inputs, other, tmp_path / "out-of-order") == in_order


@pytest.mark.parametrize("workload", ["scenario-50x150", "walk-eval"])
def test_session_gap_that_cuts_the_same_sessions_gives_the_same_bundle(tmp_path, workload):
    spec, inputs = make_inputs(workload, tmp_path)
    stamps = sorted(json.loads(line)["ts"] for line in
                    (inputs.dynamic_dir / "events.jsonl").read_text("utf-8").splitlines())
    within, between = sorted({b - a for a, b in zip(stamps, stamps[1:])})
    assert within < cli.Config().session_gap_ms < between

    def with_gap(gap):
        config = tmp_path / f"gap-{gap}.conf"
        config.write_text(f"session_gap_ms = {gap}\n", "utf-8")
        return analyse(spec, inputs, inputs.dynamic_dir, tmp_path / f"gap-{gap}",
                       "--config", str(config))

    default = analyse(spec, inputs, inputs.dynamic_dir, tmp_path / "default")
    assert default[0] == 0 and any(name.endswith(".html") for name in default[2])
    for gap in (within + 1, (within + between) // 2, between - 1):
        assert with_gap(gap) == default
    assert with_gap(between)[2] != default[2]  # a gap must exceed it to cut a session
