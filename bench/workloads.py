"""Seeded input generation for the benchmark workloads.

Every workload starts from the program's own scenario generator, driven
through ``msaconform --scenario`` so that only the CLI and its file
formats are relied on. ``scenario-50x150`` analyses that output as it is.
The other two replace the event log by seeded random walks over the
scenario's true edge graph, built here and not in ``scenario.py`` so the
acceptance suite's ground truth stays untouched:

* ``walk-eval`` writes the walks as ``events.jsonl`` and runs with
  ``--evaluate``;
* ``dot-report`` writes no log at all, only ``global.dot``: the unmerged
  prefix tree acceptor (PTA) of the walks, built by this module.

The program receives only the generated files. The ground-truth finding
ids come from the scenario's ``ground_truth.json``: the walks cover exactly
the edges of the scenario's log, so they leave its ground truth unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

ARROW = "→"
# matches the scenario generator, so every walk is one session at the
# default session_gap_ms of 1000
_INTRA_SESSION_GAP_MS = 10
_INTER_SESSION_GAP_MS = 5_000
_MIN_WALK_CALLS = 2
_MAX_WALK_CALLS = 10


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    n_services: int
    n_edges: int
    n_static_nc: int
    n_dynamic_nc: int
    n_events: int  # scenario log size; walk workloads replace the log
    graph_seed: int | None = None  # fixed scenario seed; None: the benchmark seed
    n_walks: int = 0  # 0: analyse the scenario log as generated
    write_log: bool = True  # False: only the walks' PTA as global.dot
    evaluate: bool = False


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec("scenario-50x150", 50, 150, 10, 10, n_events=50_000),
        WorkloadSpec("walk-eval", 30, 80, 5, 5, n_events=240, graph_seed=1, n_walks=1_200,
                     evaluate=True),
        WorkloadSpec("dot-report", 60, 180, 60, 60, n_events=540, graph_seed=1, n_walks=1_500,
                     write_log=False),
    )
}


@dataclass(frozen=True)
class Inputs:
    static_model: Path
    dynamic_dir: Path
    expected_ids: frozenset[str]
    description: str


def _run_scenario_generator(run_cli, spec: WorkloadSpec, seed: int, out: Path) -> None:
    spec_file = out / "scenario_spec.json"
    spec_file.write_text(json.dumps({
        "n_services": spec.n_services,
        "n_edges": spec.n_edges,
        "n_injected_static_nc": spec.n_static_nc,
        "n_injected_dynamic_nc": spec.n_dynamic_nc,
        "n_events": spec.n_events,
        "rng_seed": seed if spec.graph_seed is None else spec.graph_seed,
    }), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run_cli(["--scenario", str(spec_file), "--output_path", str(out / "scenario")])
    if code != 0:
        raise RuntimeError(f"scenario generation exited {code}: {err.getvalue().strip()}")


def _true_calls(log_text: str) -> dict[tuple[str, str], tuple[str, str]]:
    """(src, dst) -> (method, path) of every edge the scenario log exercises."""
    calls: dict[tuple[str, str], tuple[str, str]] = {}
    for line in log_text.splitlines():
        ev = json.loads(line)
        calls.setdefault((ev["src"], ev["dst"]), (ev["method"], ev["path"]))
    return calls


def random_walks(edges: list[tuple[str, str]], n_walks: int,
                 rng: random.Random) -> list[list[tuple[str, str]]]:
    """Walks of 2 to 10 calls along ``edges``.

    Walk ``i`` starts on ``edges[i % len(edges)]``, so with at least as many
    walks as edges every edge occurs. A walk ends early at a service with
    no outgoing edge.
    """
    if n_walks < len(edges):
        raise ValueError("need at least one walk per edge to cover every edge")
    out_edges: dict[str, list[tuple[str, str]]] = {}
    for edge in edges:
        out_edges.setdefault(edge[0], []).append(edge)
    walks = []
    for i in range(n_walks):
        walk = [edges[i % len(edges)]]
        length = rng.randint(_MIN_WALK_CALLS, _MAX_WALK_CALLS)
        while len(walk) < length and out_edges.get(walk[-1][1]):
            walk.append(rng.choice(out_edges[walk[-1][1]]))
        walks.append(walk)
    return walks


def walks_to_log(walks, calls) -> str:
    lines = []
    ts = 1_000_000
    for walk in walks:
        for src, dst in walk:
            method, path = calls[(src, dst)]
            lines.append(json.dumps({"ts": ts, "src": src, "dst": dst, "method": method,
                                     "path": path, "status": 200}))
            ts += _INTRA_SESSION_GAP_MS
        ts += _INTER_SESSION_GAP_MS
    return "\n".join(lines) + "\n"


def pta_dot(traces: list[list[str]]) -> str:
    """The unmerged prefix tree acceptor of ``traces`` in the program's DOT subset."""
    trans: dict[tuple[int, str], list[int]] = {}  # (state, symbol) -> [target, freq]
    n_states = 1
    for trace in traces:
        state = 0
        for symbol in trace:
            entry = trans.get((state, symbol))
            if entry is None:
                entry = trans[(state, symbol)] = [n_states, 0]
                n_states += 1
            entry[1] += 1
            state = entry[0]
    lines = ["digraph sm {", "__start -> 0;"]
    lines += [f'{src} -> {dst} [label="{sym} | {freq}"];'
              for (src, sym), (dst, freq) in sorted(trans.items())]
    lines.append("}")
    return "\n".join(lines) + "\n"


def make_inputs(run_cli, spec: WorkloadSpec, seed: int, out: Path) -> Inputs:
    """Write the workload's input files under ``out``, a new directory."""
    out.mkdir(parents=True)
    _run_scenario_generator(run_cli, spec, seed, out)
    scen = out / "scenario"
    static_model = scen / "static_model.json"
    truth = {
        f"{d['kind']}-{d['subject']}-" + "--".join(d["names"])
        for d in json.loads((scen / "ground_truth.json").read_text("utf-8"))
    }
    if not spec.n_walks:
        return Inputs(static_model, scen / "dynamic_models", frozenset(truth),
                      f"{spec.n_services} services, {spec.n_edges} edges, {spec.n_events} events")

    calls = _true_calls((scen / "dynamic_models" / "events.jsonl").read_text("utf-8"))
    edges = sorted(calls)
    walks = random_walks(edges, spec.n_walks, random.Random(f"{spec.name}-{seed}"))
    if {e for walk in walks for e in walk} != set(calls):
        raise RuntimeError("the walks do not cover exactly the edges of the scenario log")

    dyn = out / "dynamic_models"
    dyn.mkdir()
    n_events = sum(len(w) for w in walks)
    if spec.write_log:
        (dyn / "events.jsonl").write_text(walks_to_log(walks, calls), encoding="utf-8")
        kind = f"{n_events} events"
    else:
        symbols = [[f"{s}{ARROW}{d}:{calls[(s, d)][0]} {calls[(s, d)][1]}" for s, d in w]
                   for w in walks]
        (dyn / "global.dot").write_text(pta_dot(symbols), encoding="utf-8")
        kind = f"PTA of {n_events} calls, no log"
    return Inputs(static_model, dyn, frozenset(truth),
                  f"{spec.n_services} services, {spec.n_edges} edges, "
                  f"{spec.n_walks} walks ({kind})")
