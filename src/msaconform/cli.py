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
import re
import sys
import tempfile
from contextlib import suppress
from dataclasses import dataclass, fields
from fnmatch import fnmatchcase
from itertools import takewhile
from pathlib import Path

from . import detector, evaluator, interpret, report
from .automaton import StateMachine, parse_state_machine
from .errors import InputError, clip, too_many_digits
from .events import GLOBAL_SCOPE, Trace, extract_traces, parse_event_log, parse_symbol
from .learner import LearnerConfig, learn
from .scenario import ScenarioSpec, generate
from .static_model import normalize_name, parse_static_model, serialize_static_model


@dataclass
class Config:
    session_gap_ms: int = 1000
    alpha: float = LearnerConfig.alpha
    min_freq: int = LearnerConfig.min_freq
    top_n_calls: int = 5
    include_externals: bool = False
    trace_scope: str = "both"


def _read_input(path: Path) -> str:
    """A user input file's text; bytes that are not UTF-8 are an input error."""
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


# converts a configuration value's text by its Config field's type; ValueError if bad
_CONVERTERS = {"int": int, "float": float, "bool": _flag, "str": str}


def _parse_config_file(path: Path) -> Config:
    cfg = Config()
    convert = {f.name: _CONVERTERS[f.type] for f in fields(Config)}
    for line_no, raw in enumerate(_read_input(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise InputError(f"{path}:{line_no}: expected 'key = value'")
        if key not in convert:
            raise InputError(f"{path}:{line_no}: unknown configuration key {clip(key)!r}")
        try:
            setattr(cfg, key, convert[key](value))
        except ValueError as exc:
            # int() refuses a run of digits only for its length
            if convert[key] is int and re.fullmatch(r"[+-]?\d+", value):
                why = too_many_digits()
            else:
                why = repr(clip(value))
            raise InputError(f"{path}:{line_no}: bad value for {key!r}: {why}") from exc
    # alpha and min_freq are checked by the LearnerConfig built from them
    for key, ok in (("session_gap_ms", cfg.session_gap_ms > 0),
                    ("top_n_calls", cfg.top_n_calls >= 1),
                    ("trace_scope", cfg.trace_scope in ("global", "per_service", "both"))):
        if not ok:
            raise InputError(f"{path}: configuration value {key!r} is out of range")
    return cfg


def _encode(name: str, text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        # only a JSON escape such as "\ud800" in an input can put one there
        raise InputError(f"{name}: the input holds a lone surrogate escape "
                         f"({text[exc.start]!r}), which is not valid Unicode") from exc


def _write_files(out_dir: Path, files: dict[str, str]) -> None:
    """Write each file, by name, into ``out_dir`` through a temporary file.

    Each text is encoded as its temporary file is written, so no more than one
    file's bytes are in memory at once. Only when all are written do they
    replace the files of their names, and a failure part-way, such as a text
    that cannot be encoded, removes the temporary files: the former files stay
    as they were."""
    tmps: dict[str, str] = {}
    try:
        for name, text in files.items():
            fd, tmps[name] = tempfile.mkstemp(dir=out_dir, prefix=name, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(_encode(name, text))
        for name, tmp in tmps.items():
            os.replace(tmp, out_dir / name)
    except BaseException:
        for tmp in tmps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


# the names of the files an analysis writes into its output directory; a run
# removes those that it did not write, so that no earlier run's file lingers
OUTPUT_NAMES = ("architecture.puml", "index.html", "nc_*.html", "evaluation.txt",
                "evaluation.json")


def _remove_stale(out_dir: Path, written: dict[str, str]) -> None:
    """Delete each file in ``out_dir`` that has one of ``OUTPUT_NAMES`` but
    is not in ``written``; every other file or directory stays."""
    for path in out_dir.iterdir():
        if (path.name not in written and not path.is_dir()
                and any(fnmatchcase(path.name, pattern) for pattern in OUTPUT_NAMES)):
            path.unlink()


def _load_dot(dot_file: Path) -> StateMachine:
    """A ``.dot`` machine, checked to label every transition with a call that
    names its services as the other inputs do."""
    machine = parse_state_machine(_read_input(dot_file), name=dot_file.stem)
    for symbol in dict.fromkeys(symbol for _state, symbol in machine.transitions):
        try:
            src, dst, _method, _path = parse_symbol(symbol)
        except ValueError as exc:
            raise InputError(f"machine {clip(dot_file.stem)!r}: "
                             f"malformed transition symbol {clip(symbol)!r}") from exc
        for name in (src, dst):
            try:
                normalized = normalize_name(name) == name
            except InputError:
                normalized = False
            if not normalized:
                raise InputError(f"{dot_file}: label {clip(symbol)!r} has service name "
                                 f"{clip(name)!r}, which is not in normalized form "
                                 "(lowercase kebab-case)")
    return machine


def _load_dynamic_models(
    dyn_dir: Path, cfg: Config, learner_cfg: LearnerConfig, evaluate: bool
) -> tuple[dict[str, StateMachine], list[Trace] | None]:
    """Per-scope machines (.dot files, else learned) and the log's global traces,
    ``None`` if there is no log."""
    if not dyn_dir.is_dir():
        raise InputError(f"dynamic models path is not a directory: {dyn_dir}")
    machines: dict[str, StateMachine] = {}
    for dot_file in sorted(dyn_dir.glob("*.dot")):
        machines[dot_file.stem] = _load_dot(dot_file)
    global_traces: list[Trace] | None = None
    log_file = dyn_dir / "events.jsonl"
    if log_file.is_file():
        events = parse_event_log(_read_input(log_file))
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


def _summary_line(n_static: int, n_dynamic: int) -> str:
    s = "s" if n_static != 1 else ""
    d = "s" if n_dynamic != 1 else ""
    return (
        f"Detected {n_static} static non-conformance{s} and "
        f"{n_dynamic} dynamic non-conformance{d} "
        "between implementation and deployment of the system!"
    )


def _run_scenario(spec_path: Path, out_dir: Path) -> int:
    spec = ScenarioSpec.from_json(_read_input(spec_path))
    model, log_text, truth = generate(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    dyn_dir = out_dir / "dynamic_models"
    dyn_dir.mkdir(exist_ok=True)
    _write_files(out_dir, {"static_model.json": serialize_static_model(model),
                           "ground_truth.json": truth.to_json()})
    _write_files(dyn_dir, {"events.jsonl": log_text})
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
    model = parse_static_model(_read_input(static_path))

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
    details_by_id = interpret.finding_details(machines, model, ncs, cfg.top_n_calls)

    print("Generating non-conformance visualizations...")
    files = report.render_bundle(tagged, ncs, details_by_id)

    print("Generating interpretation visualizations...")
    out_dir = Path(args.output_path)
    metrics = None
    if args.evaluate:
        if global_traces is None:
            print("Skipping evaluation: there is no events.jsonl log to evaluate on")
        elif len(global_traces) < 2:
            print(f"Skipping evaluation: it needs at least 2 global traces, "
                  f"the log has {len(global_traces)}")
        else:
            k = min(10, len(global_traces))
            metrics = evaluator.evaluate(global_traces, learner_cfg, k=k, rng_seed=0)
            files["evaluation.txt"] = metrics.to_table()
            files["evaluation.json"] = metrics.to_json()
    # every file is made before the first is written, so a bad input leaves none;
    # a failed write also removes the directories this run made, deepest first
    made = list(takewhile(lambda path: not path.exists(), (out_dir, *out_dir.parents)))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        _write_files(out_dir, files)
    except BaseException:
        for directory in made:
            with suppress(OSError):  # one that is no longer empty stays
                directory.rmdir()
        raise
    _remove_stale(out_dir, files)
    if metrics is not None:
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
