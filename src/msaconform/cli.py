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
from contextlib import contextmanager, suppress
from fnmatch import fnmatchcase
from functools import partial
from itertools import takewhile
from pathlib import Path
from typing import NamedTuple

from . import detector, evaluator, events, interpret, report
from .automaton import StateMachine, parse_state_machine
from .errors import InputError, clip, encode_utf8, too_many_digits
from .events import (GLOBAL_SCOPE, EventLog, Trace, extract_traces, parse_event_log,
                     parse_symbol)
from .learner import LearnerConfig, learn
from .scenario import ScenarioSpec, generate
from .static_model import normalize_name, parse_static_model, serialize_static_model


class Config(NamedTuple):
    session_gap_ms: int = 1000
    alpha: float = LearnerConfig._field_defaults["alpha"]
    min_freq: int = LearnerConfig._field_defaults["min_freq"]
    top_n_calls: int = 5
    include_externals: bool = False
    trace_scope: str = "both"


def _read_input(path: Path) -> str:
    """A user input file's text; bytes that are not UTF-8 are an input error."""
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc


def _read_chunks(path: Path):
    """``_read_input(path)``'s text in chunks of at most ``events._BLOCK_CHARS``
    characters, decoded and with newlines translated as there, so that the
    whole text is never in memory; raises ``UnicodeDecodeError`` at a chunk
    with bytes that are not UTF-8."""
    with path.open(encoding="utf-8") as fh:
        yield from iter(partial(fh.read, events._BLOCK_CHARS), "")


def _read_event_log(path: Path) -> EventLog:
    """The parsed event log, read in chunks. As when the whole file was
    decoded before any line was read, a byte that is not UTF-8 anywhere in
    it is the error, even after a malformed line; the whole-file decode,
    made only then, names its offset in the file."""
    try:
        return parse_event_log(_read_chunks(path))
    except (InputError, UnicodeDecodeError):
        _read_input(path)
        raise


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


# converts a configuration value's text by the type of its Config field's
# default; ValueError if bad
_CONVERTERS = {int: int, float: float, bool: _flag, str: str}


def _parse_config_file(path: Path) -> Config:
    convert = {name: _CONVERTERS[type(default)]
               for name, default in Config._field_defaults.items()}
    values = {}
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
            values[key] = convert[key](value)
        except ValueError as exc:
            # int() refuses a run of digits only for its length
            if convert[key] is int and re.fullmatch(r"[+-]?\d+", value):
                why = too_many_digits()
            else:
                why = repr(clip(value))
            raise InputError(f"{path}:{line_no}: bad value for {key!r}: {why}") from exc
    cfg = Config(**values)
    # alpha and min_freq are checked by the LearnerConfig built from them
    for key, ok in (("session_gap_ms", cfg.session_gap_ms > 0),
                    ("top_n_calls", cfg.top_n_calls >= 1),
                    ("trace_scope", cfg.trace_scope in ("global", "per_service", "both"))):
        if not ok:
            raise InputError(f"{path}: configuration value {key!r} is out of range")
    return cfg


@contextmanager
def _write_files(out_dir: Path, retire: tuple[str, ...] = ()):
    """A transaction that writes files under ``out_dir``: the body is given
    ``put(name, data)``, which writes ``data`` at once to a temporary file
    beside the file named by its path under ``out_dir`` (such as
    ``dynamic_models/events.jsonl``), making the directories it needs. Each
    name is put once.

    Only when the body ends normally do the temporary files replace the
    files of their names, and each entry at the top of ``out_dir`` that
    matches a ``retire`` pattern, was not put and is not a directory (or a
    link to one) is retired. Each former file, then each entry to retire, is
    moved by one rename into a staging directory that the commit makes in
    ``out_dir`` when it meets the first; once every file is in place, the
    directory and all in it are removed, and a failure to remove them is
    only a ``warning:`` line on stderr that names the directory left. An
    exception in the body, or a failure part-way through the commit, such
    as a write or a rename that fails, removes the new files that had no
    former file, moves the former entries back, removes the temporary files
    and the staging directory, then each directory the transaction made that
    is empty again, deepest first: ``out_dir`` stays as it was."""
    made: list[Path] = []  # deepest first
    tmps: dict[str, str] = {}  # each file's path: its temporary file
    staging = ""  # the directory the former entries move to, once made
    moved: dict[str, str] = {}  # each path whose former entry is in staging: where it is

    def put(name: str, data: bytes) -> None:
        path = out_dir / name
        directory = path.parent
        if not directory.is_dir():
            made[:0] = takewhile(lambda path: not path.exists(), (directory, *directory.parents))
            directory.mkdir(parents=True, exist_ok=True)
        fd, tmps[str(path)] = tempfile.mkstemp(dir=directory, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)

    try:
        yield put
        stale = [(str(path), None) for path in out_dir.iterdir()
                 if str(path) not in tmps
                 and any(fnmatchcase(path.name, pattern) for pattern in retire)
                 and not path.is_dir()]
        for path, tmp in [*tmps.items(), *stale]:
            if tmp is None or os.path.islink(path) or os.path.isfile(path):
                staging = staging or tempfile.mkdtemp(dir=out_dir, suffix=".tmp")
                aside = os.path.join(staging, str(len(moved)))
                os.replace(path, aside)
                moved[path] = aside
            if tmp is not None:
                os.replace(tmp, path)
    except BaseException:
        for path, tmp in tmps.items():
            if not os.path.exists(tmp) and path not in moved:
                os.unlink(path)  # a new file where there was none
        for path, aside in moved.items():
            os.replace(aside, path)
        for tmp in tmps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        if staging:
            os.rmdir(staging)
        for directory in made:
            with suppress(OSError):  # one that is no longer empty stays
                directory.rmdir()
        raise
    try:
        for aside in moved.values():
            os.unlink(aside)
        if staging:
            os.rmdir(staging)
    except OSError as exc:  # every new file is in place: the run has succeeded
        print(f"warning: could not remove {staging}, which holds the former files: {exc}",
              file=sys.stderr)


# the names of the files an analysis writes into its output directory; a run
# retires those that it did not write, in the same all-or-nothing write as
# its own files, so that no earlier run's file lingers
OUTPUT_NAMES = ("architecture.puml", "index.html", "nc_*.html", "evaluation.txt",
                "evaluation.json")


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
        per_service_only = cfg.trace_scope == "per_service"
        sweep = "both" if evaluate and per_service_only else cfg.trace_scope
        # the log is passed on, not kept, so it dies once sessionized
        traces_by_scope = extract_traces(_read_event_log(log_file), cfg.session_gap_ms,
                                         scope=sweep)
        global_traces = traces_by_scope.get(GLOBAL_SCOPE, [])
        if per_service_only:
            traces_by_scope.pop(GLOBAL_SCOPE, None)  # swept for --evaluate, not learned
        for scope, traces in traces_by_scope.items():
            if scope not in machines:
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


def _run_scenario(spec_file: str, out_dir: Path) -> int:
    """Generate the scenario that the spec file ``spec_file``, a path as the
    user gave it, describes, and write its three files into ``out_dir``."""
    spec_path = Path(spec_file)
    if not spec_path.is_file():  # an empty path is the current directory
        raise InputError(f"scenario spec file not found: {spec_file}")
    spec = ScenarioSpec.from_json(_read_input(spec_path))
    model, log_text, truth = generate(spec)
    texts = {"static_model.json": serialize_static_model(model),
             "ground_truth.json": truth.to_json(),
             "dynamic_models/events.jsonl": log_text}
    with _write_files(out_dir) as put:
        for name, text in texts.items():
            put(name, encode_utf8(name, text))
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
    tagged, ncs = detector.detect(static_view, dynamic_view)

    n_static = sum(1 for nc in ncs if nc.kind is detector.NcKind.Static)
    n_dynamic = len(ncs) - n_static
    print(_summary_line(n_static, n_dynamic))

    print("Generating non-conformance interpretations...")
    # made one finding at a time, as the report renders each page
    details = interpret.finding_details(machines, model, ncs, cfg.top_n_calls)

    print("Generating non-conformance visualizations...")
    metrics = None
    # each file is written as soon as it is made; a bad input met later still leaves none
    with _write_files(Path(args.output_path), retire=OUTPUT_NAMES) as put:
        report.render_bundle(tagged, ncs, details, put)

        print("Generating interpretation visualizations...")
        if args.evaluate:
            if global_traces is None:
                print("Skipping evaluation: there is no events.jsonl log to evaluate on")
            elif len(global_traces) < 2:
                print(f"Skipping evaluation: it needs at least 2 global traces, "
                      f"the log has {len(global_traces)}")
            else:
                k = min(10, len(global_traces))
                metrics = evaluator.evaluate(global_traces, learner_cfg, k=k, rng_seed=0)
                put("evaluation.txt", encode_utf8("evaluation.txt", metrics.to_table()))
                put("evaluation.json", encode_utf8("evaluation.json", metrics.to_json()))
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


# the flags of an analysis, which a scenario run does not take, in the usage's order
SCENARIO_REJECTS = ("--static_model_path", "--dynamic_models_path", "--config", "--evaluate",
                    "--fail-on-nc")


def _usage_error(parser: argparse.ArgumentParser, message: str) -> int:
    """Print the usage line and one ``error:`` line; the exit code."""
    parser.print_usage(sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    return 2


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    scenario = args.scenario is not None  # an empty spec path too
    required = ["output_path"] if scenario else [
        "static_model_path", "dynamic_models_path", "output_path"]
    # each flag's attribute, named as argparse names it
    rejected = [flag for flag in SCENARIO_REJECTS
                if scenario and getattr(args, flag[2:].replace("-", "_"))]
    if rejected:
        return _usage_error(parser, f"--scenario does not take {', '.join(rejected)}")
    try:
        print("Reading configuration file...")
        cfg = _parse_config_file(Path(args.config)) if args.config else Config()
        missing = [f"--{name}" for name in required if not getattr(args, name)]
        if missing:
            return _usage_error(parser, f"missing required flags: {', '.join(missing)}")
        if scenario:
            return _run_scenario(args.scenario, Path(args.output_path))
        return _run_analysis(args, cfg)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
