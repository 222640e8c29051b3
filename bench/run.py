"""Benchmark of the msaconform analysis pipeline.

Runs the real CLI pipeline in-process (``msaconform.cli.run``) on seeded
inputs generated by ``workloads.py``, checks every run's output, and prints
every metric by name with its unit. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Usage, from the repository root::

    python3 bench/run.py --workload walk-eval --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``:

* ``run_s``: median wall seconds of one ``cli.run``, from its start to the
  last file written, over the timed runs; quartiles and sample count are
  printed beside it;
* ``peak_mem_mb``: how far one ``cli.run`` raises the peak resident set
  size of a fresh child interpreter above its size after the import, in
  an extra, untimed run. (``tracemalloc`` would report the Python heap
  alone, but makes a run 4 to 9 times slower, which the run budget cannot
  afford beside enough timed runs for a steady median.);
* ``setup_s``: median, over several fresh child interpreters, of the time
  to import ``msaconform.cli`` (which loads the interpretation catalog)
  and build its argument parser.

``fail_rate`` is ``failed / attempted``, carried by those two keys of the
result. A run fails if it exits non-zero, if its set of finding ids
differs from the workload's ground truth, if the sha256 of its report
bundle (diagram, pages and evaluation files) differs from the first run of
the same program sources on the same input (kept under ``.bench_run/refs``
so later invocations, and the child run in another interpreter, are held
to it too), on ``walk-eval`` if ``evaluation.json`` is missing, or if one of
the invariants, ``learner.learned_states`` (traced runs only) and
``evaluator.balanced_accuracy``, differs from its value at the first point
of ``trajectory.json`` on the same workload and seed (for the seeds that
point holds). Only a run that passes every other check may set the
reference bundle. ``balanced_accuracy`` comes from ``evaluation.json`` on
``walk-eval`` only; it is printed on both modes and reported as
``evaluator.balanced_accuracy`` with ``--trace 1``.

``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics: the medians over the traced runs of the span totals and
counters computed by ``tracing.py``, the traced ``run_s`` and the tracing
overhead (traced minus untraced ``run_s``), and the number of layer spans
that fired zero times on a workload where they should fire. The spans of
every traced run are written to ``.bench_run/spans-<workload>-seed<n>.json``
when the benchmark ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ROOT_SPAN, Tracer, layer_metrics, span_records
from workloads import WORKLOADS, make_inputs

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK = REPO / ".bench_run"
TRAJECTORY = Path(__file__).resolve().parent / "trajectory.json"
# outputs a faster program must reproduce exactly: their direction in
# BENCHMARK.json is not a goal
INVARIANTS = ("learner.learned_states", "evaluator.balanced_accuracy")

MIN_TIMED_RUNS = 3
MIN_TRACED_RUNS = 2
SETUP_PER_RUN = 2
# the report bundle: diagram, pages and evaluation; any other output, such
# as a run manifest with timings, is not required to repeat byte for byte
BUNDLE = ("*.puml", "*.html", "evaluation.*")

# VmHWM is the child's own peak RSS; ru_maxrss would start from the
# benchmark process's size at fork.
_MEMORY_CODE = """\
import contextlib, io, json, sys
def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
sys.path.insert(0, sys.argv[1])
import msaconform.cli
before = peak_kib()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = msaconform.cli.run(json.loads(sys.argv[2]))
print(json.dumps([code, peak_kib() - before]))
"""

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import msaconform.cli
msaconform.cli.build_parser()
print(time.perf_counter() - t0)
"""

_BASE_SPANS = {ROOT_SPAN, "static_model.parse", "detector.static_view", "detector.dynamic_view",
               "detector.detect", "interpret.static_details",
               "interpret.dynamic_details", "report.render"}


def expected_spans(spec) -> set[str]:
    """Layer spans that must fire at least once on the workload."""
    names = set(_BASE_SPANS)
    if spec.write_log:
        names |= {"events.parse", "events.sessionize", "learner.learn"}
    else:
        names.add("automaton.parse_dot")
    if spec.evaluate:
        names |= {"evaluator.evaluate", "evaluator.mutate", "automaton.accepts"}
    return names


def invariant_reference(workload: str, seed: int) -> dict[str, float]:
    """The invariants' values at the first trajectory point, if it holds this workload and seed."""
    if not TRAJECTORY.is_file():
        return {}
    first = json.loads(TRAJECTORY.read_text("utf-8"))[0]
    metrics = first["results"].get(workload, {}).get(str(seed), {}).get("metrics", {})
    return {name: metrics[name] for name in INVARIANTS if name in metrics}


def tree_sha256(root: Path, patterns: tuple[str, ...] = ("*",)) -> str:
    """Digest of the files under ``root`` that match ``patterns``: relative names and bytes."""
    digest = hashlib.sha256()
    paths = {p for pattern in patterns for p in root.rglob(pattern) if p.is_file()}
    for path in sorted(paths):
        if "__pycache__" in path.parts:
            continue
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class Checker:
    """The per-run correctness check behind ``fail_rate``."""

    def __init__(self, expected_ids: frozenset[str], ref_file: Path, needs_evaluation: bool,
                 invariants: dict[str, float]):
        self.expected_ids = expected_ids
        self.ref_file = ref_file
        self.needs_evaluation = needs_evaluation
        self.invariants = invariants
        self.reference = ref_file.read_text("utf-8").strip() if ref_file.is_file() else None
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, code, out_dir: Path, values: dict[str, float]) -> None:
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        ids = {p.name[len("nc_"):-len(".html")] for p in out_dir.glob("nc_*.html")}
        if ids != self.expected_ids:
            problems.append(f"finding ids differ from ground truth: "
                            f"missing {sorted(self.expected_ids - ids)[:3]}, "
                            f"unexpected {sorted(ids - self.expected_ids)[:3]}")
        if self.needs_evaluation and not (out_dir / "evaluation.json").is_file():
            problems.append("evaluation.json missing")
        for name, want in self.invariants.items():
            if name in values and values[name] != want:
                problems.append(f"{name} {values[name]} differs from the first trajectory "
                                f"point's {want}")
        digest = tree_sha256(out_dir, BUNDLE) if out_dir.is_dir() else "no output"
        if self.reference is None:
            # a failed run must not become the reference of every later run
            if not problems:
                self.reference = digest
                _write_atomic(self.ref_file, digest + "\n")
        elif digest != self.reference:
            problems.append(f"bundle sha256 {digest[:12]} differs from first run "
                            f"{self.reference[:12]}")
        if problems:
            self.failures.append(f"run {self.attempted}: " + "; ".join(problems))


def run_once(cli, argv: list[str], out_dir: Path, tracer: Tracer | None = None
             ) -> tuple[object, float]:
    """One in-process ``cli.run``: (exit code or error text, wall seconds)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.run(argv)
            else:
                with tracer.trace():
                    code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing run is a failed run, reported below
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, elapsed


def run_in_child(argv: list[str], out_dir: Path) -> tuple[object, float]:
    """One ``cli.run`` in a fresh interpreter: (exit code, peak RSS growth in MB)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    proc = subprocess.run([sys.executable, "-I", "-c", _MEMORY_CODE, str(SRC), json.dumps(argv)],
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        return f"child exited {proc.returncode}: {proc.stderr.strip()[-200:]}", 0.0
    code, grown_kib = json.loads(proc.stdout.splitlines()[-1])
    return code, grown_kib * 1024 / 1e6


def setup_time() -> float:
    """Seconds a fresh interpreter takes to import ``msaconform.cli`` and build its parser."""
    proc = subprocess.run([sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def output_counts(out_dir: Path) -> dict[str, float]:
    files = [p for p in out_dir.iterdir() if p.is_file()] if out_dir.is_dir() else []
    report_files = [p for p in files if p.suffix in (".html", ".puml")]
    evaluation = out_dir / "evaluation.json"
    accuracy = 0.0
    if evaluation.is_file():
        try:
            accuracy = json.loads(evaluation.read_text("utf-8"))["balanced_accuracy"]
        except (ValueError, KeyError):  # a partial file: the invariant check fails the run
            accuracy = -1.0
    return {
        "report.bytes": sum(p.stat().st_size for p in report_files),
        "report.pages": sum(1 for p in report_files if p.name.startswith("nc_")),
        "cli.files_written": len(files),
        "evaluator.balanced_accuracy": accuracy,
    }


def measure(cli, spec, seed: int, seconds: float, traced: bool,
            work: Path) -> tuple[Checker, dict[str, float], list[str]]:
    """Run the workload; return the checker, the metric values and report lines."""
    inputs = make_inputs(cli.run, spec, seed, work / "in")
    # the reference bundle belongs to one version of the program on one input
    key = hashlib.sha256(f"{tree_sha256(SRC / 'msaconform')} {tree_sha256(work / 'in')} "
                         f"{spec.name}".encode()).hexdigest()
    ref_file = WORK / "refs" / f"{spec.name}-{key[:24]}.sha256"
    out_dir = work / "out"
    argv = ["--static_model_path", str(inputs.static_model),
            "--dynamic_models_path", str(inputs.dynamic_dir), "--output_path", str(out_dir)]
    if spec.evaluate:
        argv.append("--evaluate")
    checker = Checker(inputs.expected_ids, ref_file, needs_evaluation=spec.evaluate,
                      invariants=invariant_reference(spec.name, seed))
    lines = [f"workload {spec.name}, seed {seed}: {inputs.description}, "
             f"{len(inputs.expected_ids)} expected findings"]

    def timed_run(tracer: Tracer | None = None) -> tuple[float, dict[str, float]]:
        code, elapsed = run_once(cli, argv, out_dir, tracer)
        values = output_counts(out_dir)
        if tracer is not None:
            values.update(layer_metrics(tracer.spans))
        checker.check(code, out_dir, values)
        return elapsed, values

    if not traced:
        code, peak_mb = run_in_child(argv, out_dir)
        counts = output_counts(out_dir)
        checker.check(code, out_dir, counts)
        accuracy = counts["evaluator.balanced_accuracy"] if code == 0 else 0.0
        # set-up samples are spread between the timed runs, so that both
        # medians sample the same stretches of machine speed
        times, setup = [], []
        deadline = time.perf_counter() + seconds
        while len(times) < MIN_TIMED_RUNS or time.perf_counter() < deadline:
            times.append(timed_run()[0])
            setup += [setup_time() for _ in range(SETUP_PER_RUN)]
        q1, med, q3 = statistics.quantiles(times, n=4)
        s1, setup_med, s3 = statistics.quantiles(setup, n=4)
        metrics = {"run_s": med, "peak_mem_mb": peak_mb, "setup_s": setup_med}
        lines += [
            f"run_s quartiles {q1:.4f} / {med:.4f} / {q3:.4f} s over n={len(times)} timed runs",
            f"setup_s quartiles {s1:.4f} / {setup_med:.4f} / {s3:.4f} s "
            f"over n={len(setup)} child interpreters",
            "balanced_accuracy " + (f"{accuracy:.6f}" if spec.evaluate else "n/a (no --evaluate)"),
        ]
        return checker, metrics, lines

    tracer = Tracer()
    plain, traced_times, per_run, span_log = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_times) < MIN_TRACED_RUNS or time.perf_counter() < deadline:
        plain.append(timed_run()[0])
        elapsed, values = timed_run(tracer)
        traced_times.append(elapsed)
        per_run.append(values)
        span_log.append(span_records(tracer.spans))
    missing = sorted(name for name in expected_spans(spec)
                     if any(name not in {s["name"] for s in run} for run in span_log))
    metrics = {}
    for name in per_run[0]:
        values = [run[name] for run in per_run]
        exact = all(isinstance(v, int) for v in values)  # counts stay whole numbers
        metrics[name] = statistics.median_low(values) if exact else statistics.median(values)
    metrics["trace.run_s"] = statistics.median(traced_times)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(plain)
    metrics["trace.missing_spans"] = len(missing)
    lines += [
        f"untraced run_s {statistics.median(plain):.4f} s, traced {metrics['trace.run_s']:.4f} s "
        f"over n={len(traced_times)} pairs; overhead {metrics['trace.overhead_s']:+.4f} s",
        f"spans per traced run: {len(span_log[-1])}",
        "span coverage: " + ("every expected layer span fired" if not missing
                             else "MISSING " + ", ".join(missing)),
    ]
    if tracer.not_found:
        lines.append("wrapped functions not found: " + ", ".join(tracer.not_found))
    _write_atomic(WORK / f"spans-{spec.name}-seed{seed}.json", json.dumps(
        {"workload": spec.name, "seed": seed, "missing_spans": missing,
         "not_found": tracer.not_found, "runs": span_log}) + "\n")
    return checker, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="msaconform pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config_file = REPO / "BENCHMARK.json"
    if not (SRC / "msaconform" / "cli.py").is_file() or not config_file.is_file():
        print(f"error: no msaconform sources under {SRC} or no {config_file.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    config = json.loads(config_file.read_text("utf-8"))
    wanted = config["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    from msaconform import cli

    spec = WORKLOADS[args.workload]
    work = WORK / f"{spec.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (WORK / "refs").mkdir(parents=True, exist_ok=True)
    try:
        checker, values, lines = measure(cli, spec, args.seed, args.seconds, bool(args.trace),
                                         work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(checker.failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for line in lines:
        print(line)
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    shown = {m["name"] for m in wanted}
    for name in sorted(set(values) - shown):
        print(f"  {name:<30} {values[name]:>14.6g} (printed only)")
    print(f"fail_rate {failed}/{checker.attempted} = {failed / checker.attempted:.3f}")
    for failure in checker.failures:
        print("FAILED " + failure)
    print("check: " + ("PASS" if not failed else "FAIL"))
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
