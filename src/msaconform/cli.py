"""Command-line entry point orchestrating the full analysis pipeline.

Typical invocation::

    msaconform --static_model_path model.json \
               --dynamic_models_path dynamic/ \
               --output_path out/

The dynamic models directory may contain pre-learned ``*.dot`` state
machines, an ``events.jsonl`` log to learn from, or both; an explicit
``.dot`` file wins over the learned machine of the same scope.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

from . import detector, evaluator, interpret, report
from .automaton import StateMachine, parse_state_machine
from .errors import ConformanceError, InputError
from .events import GLOBAL_SCOPE, Trace, extract_traces, parse_event_log
from .learner import LearnerConfig, learn
from .scenario import ScenarioSpec, generate
from .static_model import parse_static_model, serialize_static_model


@dataclass
class Config:
    session_gap_ms: int = 1000
    alpha: float = 0.05
    min_freq: int = 0
    top_n_calls: int = 5
    include_externals: bool = False
    trace_scope: str = "both"


def _parse_config_file(path: Path) -> Config:
    cfg = Config()
    known = {f.name: f.type for f in fields(Config)}
    for line_no, raw in enumerate(path.read_text("utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise InputError(f"{path}:{line_no}: expected 'key = value'")
        if key not in known:
            raise InputError(f"{path}:{line_no}: unknown configuration key {key!r}")
        try:
            if key in ("session_gap_ms", "min_freq", "top_n_calls"):
                setattr(cfg, key, int(value))
            elif key == "alpha":
                setattr(cfg, key, float(value))
            elif key == "include_externals":
                if value not in ("true", "false"):
                    raise ValueError(value)
                setattr(cfg, key, value == "true")
            elif key == "trace_scope":
                if value not in ("global", "per_service", "both"):
                    raise ValueError(value)
                setattr(cfg, key, value)
        except ValueError as exc:
            raise InputError(f"{path}:{line_no}: bad value for {key!r}: {value!r}") from exc
    # alpha and min_freq are checked by the LearnerConfig built from them
    if cfg.session_gap_ms <= 0 or cfg.top_n_calls < 1:
        raise InputError(f"{path}: configuration values out of range")
    return cfg


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_dynamic_models(
    dyn_dir: Path, cfg: Config, learner_cfg: LearnerConfig, evaluate: bool
) -> tuple[dict[str, StateMachine], list[Trace]]:
    """Per-scope machines (.dot files, else learned) and the log's global traces."""
    if not dyn_dir.is_dir():
        raise InputError(f"dynamic models path is not a directory: {dyn_dir}")
    machines: dict[str, StateMachine] = {}
    for dot_file in sorted(dyn_dir.glob("*.dot")):
        machines[dot_file.stem] = parse_state_machine(
            dot_file.read_text("utf-8"), name=dot_file.stem
        )
    global_traces: list[Trace] = []
    log_file = dyn_dir / "events.jsonl"
    if log_file.is_file():
        events = parse_event_log(log_file.read_text("utf-8"))
        per_service_only = cfg.trace_scope == "per_service"
        sweep = "both" if evaluate and per_service_only else cfg.trace_scope
        traces_by_scope = extract_traces(events, cfg.session_gap_ms, scope=sweep)
        global_traces = traces_by_scope.get(GLOBAL_SCOPE, [])
        if per_service_only:
            traces_by_scope.pop(GLOBAL_SCOPE, None)  # swept for --evaluate, not learned
        for scope, traces in traces_by_scope.items():
            if scope not in machines and traces:
                machines[scope] = learn(traces, learner_cfg, name=scope)
    if not machines:
        raise InputError(f"no dynamic models found in {dyn_dir} (*.dot or events.jsonl)")
    return machines, global_traces


def _detail_machines(machines: dict[str, StateMachine]) -> dict[tuple[str, ...], StateMachine]:
    """Per edge ``(src, dst)`` and service ``(name,)``, the machine whose details a static
    finding on it shows: global if it has the subject, else the lowest-named that does."""
    chosen: dict[tuple[str, ...], StateMachine] = {}
    for scope in sorted(machines, key=lambda name: (name != GLOBAL_SCOPE, name)):
        view = detector.extract_dynamic_view([machines[scope]])
        for subject in [*view.edges, *((name,) for name in view.nodes)]:
            chosen.setdefault(subject, machines[scope])
    return chosen


def _summary_line(n_static: int, n_dynamic: int) -> str:
    s = "s" if n_static != 1 else ""
    d = "s" if n_dynamic != 1 else ""
    return (
        f"Detected {n_static} static non-conformance{s} and "
        f"{n_dynamic} dynamic non-conformance{d} "
        "between implementation and deployment of the system!"
    )


def _run_scenario(spec_path: Path, out_dir: Path) -> int:
    spec = ScenarioSpec.from_json(spec_path.read_text("utf-8"))
    model, log_text, truth = generate(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "static_model.json", serialize_static_model(model))
    dyn_dir = out_dir / "dynamic_models"
    dyn_dir.mkdir(exist_ok=True)
    _atomic_write(dyn_dir / "events.jsonl", log_text)
    _atomic_write(out_dir / "ground_truth.json", truth.to_json())
    print(f"Generated scenario with {spec.n_services} services into {out_dir}")
    return 0


def _run_analysis(args, cfg: Config) -> int:
    try:
        learner_cfg = LearnerConfig(alpha=cfg.alpha, min_freq=cfg.min_freq)
    except ValueError as exc:
        raise InputError(f"bad learner configuration: {exc}") from exc

    print("Processing static model...")
    static_path = Path(args.static_model_path)
    if not static_path.is_file():
        raise InputError(f"static model file not found: {static_path}")
    model = parse_static_model(static_path.read_text("utf-8"))

    print("Processing dynamic model...")
    machines, global_traces = _load_dynamic_models(
        Path(args.dynamic_models_path), cfg, learner_cfg, args.evaluate
    )

    static_view = detector.extract_static_view(model, include_externals=cfg.include_externals)
    dynamic_view = detector.extract_dynamic_view(list(machines.values()))
    print("Detecting non-conformances: 100")  # nodes pass
    print("Detecting non-conformances: 100")  # edges pass
    tagged, ncs = detector.detect(static_view, dynamic_view)

    n_static = sum(1 for nc in ncs if nc.kind is detector.NcKind.Static)
    n_dynamic = len(ncs) - n_static
    print(_summary_line(n_static, n_dynamic))

    print("Generating non-conformance interpretations...")
    interps_by_kind = {
        kind: interpret.interpretations_for(kind) for kind in detector.NcKind
    }
    detail_machines = _detail_machines(machines)
    details_by_id = {}
    for nc in ncs:
        if nc.kind is detector.NcKind.Static:
            details_by_id[nc.id] = interpret.static_nc_details(
                detail_machines.get(nc.names), nc, top_n=cfg.top_n_calls
            )
        else:
            details_by_id[nc.id] = interpret.dynamic_nc_details(model, nc)

    print("Generating non-conformance visualizations...")
    bundle = report.render_bundle(tagged, ncs, interps_by_kind, details_by_id)

    print("Generating interpretation visualizations...")
    out_dir = Path(args.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "architecture.puml", bundle.architecture_puml)
    _atomic_write(out_dir / "index.html", bundle.index_html)
    for nc_id, html_text in sorted(bundle.nc_pages.items()):
        _atomic_write(out_dir / report.page_filename(nc_id), html_text)

    if args.evaluate and len(global_traces) >= 2:
        k = min(10, len(global_traces))
        metrics = evaluator.evaluate(global_traces, learner_cfg, k=k, rng_seed=0)
        _atomic_write(out_dir / "evaluation.txt", metrics.to_table())
        _atomic_write(out_dir / "evaluation.json", metrics.to_json())
        print(metrics.to_table(), end="")

    if args.fail_on_nc and ncs:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msaconform",
        description="Detect, visualize, and explain non-conformances between "
        "a static architecture model and observed runtime behavior.",
    )
    parser.add_argument("--static_model_path", help="static model JSON file")
    parser.add_argument("--dynamic_models_path", help="directory with *.dot machines and/or events.jsonl")
    parser.add_argument("--output_path", help="output directory for the report bundle")
    parser.add_argument("--config", help="optional key = value configuration file")
    parser.add_argument("--evaluate", action="store_true",
                        help="also run the model-correctness evaluation when a log is present")
    parser.add_argument("--scenario", metavar="SPECFILE",
                        help="generate a synthetic scenario instead of analyzing")
    parser.add_argument("--fail-on-nc", action="store_true",
                        help="exit non-zero when non-conformances are found (for CI)")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print("Reading configuration file...")
        cfg = _parse_config_file(Path(args.config)) if args.config else Config()
        if args.scenario:
            if not args.output_path:
                parser.print_usage(sys.stderr)
                print("error: --output_path is required", file=sys.stderr)
                return 2
            return _run_scenario(Path(args.scenario), Path(args.output_path))
        missing = [
            flag
            for flag, value in (
                ("--static_model_path", args.static_model_path),
                ("--dynamic_models_path", args.dynamic_models_path),
                ("--output_path", args.output_path),
            )
            if not value
        ]
        if missing:
            parser.print_usage(sys.stderr)
            print(f"error: missing required flags: {', '.join(missing)}", file=sys.stderr)
            return 2
        return _run_analysis(args, cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConformanceError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
