"""Record one trajectory point: every workload on two seeds, untraced and traced.

Usage, from the repository root::

    python3 bench/record.py --label "parent of the learner rewrite"

Every point is taken on the same two seeds, ``SEEDS``, so that points stay
comparable. Each (workload, seed, trace) combination is one ``bench/run.py`` process
with ``run_seconds`` from ``BENCHMARK.json``. The results are appended to
``bench/trajectory.json`` under the label, with the sha256 of the program
sources and the core count they were taken on, and printed with the two
seeds side by side, so that a later claim can be checked on a seed it was
not tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import REPO, SRC, TRAJECTORY, tree_sha256

SEEDS = (1, 2)


def run_bench(config: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(REPO / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    config = json.loads((REPO / "BENCHMARK.json").read_text("utf-8"))
    workloads = [w["name"] for w in config["workloads"]]
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}

    results: dict = {}
    for workload in workloads:
        for seed in SEEDS:
            untraced = run_bench(config, workload, seed, 0)
            traced = run_bench(config, workload, seed, 1)
            results.setdefault(workload, {})[str(seed)] = {
                "correct": untraced["correct"] and traced["correct"],
                "attempted": untraced["attempted"] + traced["attempted"],
                "failed": untraced["failed"] + traced["failed"],
                "metrics": {**untraced["metrics"], **traced["metrics"]},
            }
            print(f"done {workload} seed {seed}", file=sys.stderr, flush=True)

    point = {
        "label": args.label,
        "program_sha256": tree_sha256(SRC / "msaconform"),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": config["run_seconds"],
        "seeds": list(SEEDS),
        "results": results,
    }
    trajectory = json.loads(TRAJECTORY.read_text("utf-8")) if TRAJECTORY.is_file() else []
    trajectory.append(point)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")

    a, b = (str(s) for s in SEEDS)
    for workload in workloads:
        runs = results[workload]
        print(f"\n{workload}: seed {a} | seed {b}   "
              f"(failed {runs[a]['failed']}/{runs[a]['attempted']} | "
              f"{runs[b]['failed']}/{runs[b]['attempted']})")
        for name, unit in units.items():
            print(f"  {name:<30} {runs[a]['metrics'][name]:>12.6g} | "
                  f"{runs[b]['metrics'][name]:<12.6g} {unit}")
    return 0 if all(r["correct"] for runs in results.values() for r in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
