"""CLI fuzz test: random bytes and JSON shapes for every input file.

Each example writes a static model, an ``events.jsonl``, a ``global.dot``, a
``--config`` file and a ``--scenario`` spec, each absent, random bytes, a
random JSON shape or a near-valid document, and runs the CLI in-process.
The run must exit 0, 2 or 3 without raising, and a second run on the same
inputs must write the same bundle.

Every input kind now and then holds a run of more digits than ``int()``
converts (4,300 by default): a JSON number, a config value, or a ``.dot``
state id or frequency. Python cannot print such an int, so a JSON document
carries a marker string that ``dumps`` swaps for the digits.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, event, find, given, settings
from hypothesis import strategies as st

from msaconform.cli import run

KEYS = ("services", "external_entities", "information_flows", "name", "stereotypes",
        "traceability", "file", "line", "snippet", "sender", "receiver", "ts", "src", "dst",
        "method", "path", "status", "n_services", "n_edges", "n_events", "rng_seed")
LIMIT = sys.get_int_max_str_digits()
# digit runs just over the limit and well over it
long_digits = st.sampled_from([LIMIT + 1, LIMIT + 700]).map(lambda n: "9" * n)
long_number = long_digits.map("#DIGITS{}#".format)  # a JSON value; dumps makes it a number
_LONG_RE = re.compile(r'"#DIGITS(\d+)#"')
LONG_RUN = rb"\d{%d}" % (LIMIT + 1)  # in a file's bytes


def dumps(value) -> str:
    """``json.dumps``, with each ``long_number`` marker replaced by its digits."""
    return _LONG_RE.sub(lambda m: m.group(1), json.dumps(value))


def now_and_then(common, rare):
    """``rare`` one time in sixteen."""
    return st.sampled_from([True] * 15 + [False]).flatmap(lambda ok: common if ok else rare)


scalars = now_and_then(st.none() | st.booleans() | st.integers(-3, 5)
                       | st.floats(allow_nan=False) | st.text(max_size=6), long_number)
shapes = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), children,
                                        max_size=4)),
    max_leaves=12,
)


def mostly(valid, invalid):
    """``valid`` seven times in eight (``one_of`` would draw each branch about as often)."""
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda ok: valid if ok else invalid)


SERVICES = ["a", "b", "c", "Svc B", "d_1"]
names = mostly(st.sampled_from(SERVICES), st.sampled_from(["", "--", "global", "x", "\udc00"]))
stereotypes = mostly(st.lists(st.sampled_from(["GET /x", "self-call", "db", ""]), max_size=2),
                     shapes)
traceability = mostly(st.fixed_dictionaries(
    {"file": st.text(max_size=4), "line": mostly(st.integers(1, 3), shapes | long_number)},
    optional={"snippet": mostly(st.text(max_size=4), shapes | st.just("lone \ud800"))},
), shapes)


@st.composite
def static_models(draw):
    """Mostly valid: declared services, flows between them, now and then a wrong field."""
    services = draw(st.lists(st.sampled_from(SERVICES), unique=True, max_size=5))
    declared = draw(mostly(st.just(services), st.just([*services, "x"])))
    node_extra = mostly(st.just({}), st.fixed_dictionaries(
        {}, optional={"stereotypes": stereotypes, "traceability": traceability}))
    flow_ends = st.sampled_from(declared) if declared else names
    doc = {"services": [{"name": draw(mostly(st.just(n), names)), **draw(node_extra)}
                        for n in services]}
    flows = draw(st.lists(st.tuples(flow_ends, flow_ends), max_size=6, unique=True))
    doc["information_flows"] = [
        {"sender": a, "receiver": b, "stereotypes": ["self-call"] if a == b else [],
         **draw(node_extra)} for a, b in flows]
    if draw(st.booleans()):
        doc["external_entities"] = [{"name": "user"}]
    return doc


event_fields = st.fixed_dictionaries(
    {"src": names, "dst": names,
     "method": mostly(st.sampled_from(["GET", "post", "PUT"]), st.sampled_from(["BREW", ""])),
     "path": mostly(st.sampled_from(["/x", "/y/12", "/z?q=1", "/a b", "/→"]),
                    st.sampled_from(["x", "/\udc00"]))},
    optional={"status": mostly(st.integers(100, 599), shapes | long_number)},
)


@st.composite
def event_logs(draw):
    """Events at increasing times, sometimes with a blank or a broken line."""
    lines, ts = [], 0
    for fields in draw(st.lists(event_fields, max_size=25)):
        ts += draw(st.sampled_from([0, 5, 10, 2000]))
        lines.append(dumps({"ts": draw(now_and_then(st.just(ts), long_number)), **fields}))
    if lines and draw(st.integers(0, 3)) == 0:
        bad = draw(shapes.map(dumps) | st.text(max_size=8) | st.just(""))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines)


labels = mostly(
    st.builds("{}→{}:{} {}".format, names, names, mostly(st.just("GET"), st.just("")),
              mostly(st.sampled_from(["/x", "/y"]), st.just("z"))),
    st.text(max_size=8).filter(lambda s: '"' not in s and "|" not in s),
)


@st.composite
def dots(draw):
    """A chain from state 0 plus random extra edges; labels mostly well-formed,
    now and then a state id or frequency too long to convert."""
    n = draw(st.integers(0, 5))
    lines = [f'{i} -> {i + 1} [label="{draw(labels)} | '
             f'{draw(now_and_then(st.integers(1, 3), long_digits))}"];' for i in range(n)]
    state = now_and_then(st.integers(0, n + 1), long_digits)
    lines += draw(st.lists(st.builds(
        '{} -> {} [label="{} | {}"];'.format,
        state, state, labels, now_and_then(st.integers(0, 3), long_digits)), max_size=3))
    start = draw(now_and_then(
        st.sampled_from(["__start -> 0;", "__start -> 0;", "", "__start -> 9;"]),
        long_digits.map("__start -> {};".format)))
    return "digraph sm {\n" + "\n".join([start, *lines]) + "\n}\n"


LONG = "9" * (LIMIT + 1)
config_values = {  # key: (valid values, invalid values)
    "session_gap_ms": (["1000", "5"], ["0", LONG]),
    "alpha": (["0.05", "1.0"], ["2.0"]),
    "min_freq": (["0", "2"], ["-1", LONG]),
    "top_n_calls": (["1", "5"], ["0", LONG]),
    "include_externals": (["true", "false"], ["yes"]),
    "trace_scope": (["both", "global", "per_service"], ["all"]),
}
config_lines = st.sampled_from(sorted(config_values)).flatmap(
    lambda key: mostly(*map(st.sampled_from, config_values[key])).map(
        lambda value: f"{key} = {value}"))
configs = st.lists(mostly(config_lines, st.sampled_from(["# note", "", "colour = red", "oops"])),
                   max_size=3).map("\n".join)


@st.composite
def specs(draw):
    """Mostly feasible scenario specs, small enough to generate in milliseconds."""
    n = draw(st.integers(1, 8))
    spec = {"n_services": n, "n_edges": draw(st.integers(max(n - 1, 0), max(n * (n - 1), 1)))}
    spec = {**spec, **draw(st.fixed_dictionaries({}, optional={
        "n_injected_static_nc": st.integers(0, 2), "n_injected_dynamic_nc": st.integers(0, 2),
        "n_events": st.integers(1, 200), "rng_seed": st.integers(0, 9)}))}
    if draw(now_and_then(st.just(False), st.just(True))):
        spec[draw(st.sampled_from(sorted(spec)))] = draw(long_number)
    return spec


noise = st.one_of(
    st.binary(max_size=40),
    shapes.map(lambda v: dumps(v).encode()),
    st.sampled_from([b"[" * 5000, b"\xff\xfe", b""]),
)
FILES = {
    "static_model.json": static_models(),
    "dynamic/events.jsonl": event_logs(),
    "dynamic/global.dot": dots(),
    "config.txt": configs,
    "spec.json": specs(),
}


def render(doc) -> bytes:
    text = doc if isinstance(doc, str) else dumps(doc)
    # a surrogate in a text file becomes bytes that are not UTF-8
    return text.encode("utf-8", "surrogatepass")


@st.composite
def cases(draw):
    """Every file near-valid or absent, then at most two of them replaced by noise;
    also a spec key with a value of the wrong type, now and then."""
    case = {}
    for name, documents in FILES.items():
        # the static model and the spec are required inputs; noise may still drop them
        required = name in ("static_model.json", "spec.json")
        doc = draw(documents if required else mostly(documents, st.none()))
        if name == "spec.json" and doc is not None and draw(st.integers(0, 3)) == 0:
            doc = {**doc, draw(st.sampled_from(sorted(doc))): draw(scalars)}
        if doc is not None:
            case[name] = render(doc)
    for name in draw(mostly(st.just(()), st.sets(st.sampled_from(sorted(FILES)), max_size=2))):
        case[name] = draw(st.none() | noise)
    case["flags"] = [flag for flag in ("--evaluate", "--fail-on-nc") if draw(st.booleans())]
    case["scenario_mode"] = draw(st.booleans())
    return case


def run_once(root: Path, case: dict, out_dir: Path) -> tuple[int, str, dict[str, bytes]]:
    argv = ["--output_path", str(out_dir), *case["flags"]]
    if case.get("config.txt") is not None:
        argv += ["--config", str(root / "config.txt")]
    if case["scenario_mode"]:
        argv += ["--scenario", str(root / "spec.json")]
    else:
        argv += ["--static_model_path", str(root / "static_model.json"),
                 "--dynamic_models_path", str(root / "dynamic")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    bundle = ({str(p.relative_to(out_dir)): p.read_bytes()
               for p in sorted(out_dir.rglob("*")) if p.is_file()}
              if out_dir.is_dir() else {})
    return code, stderr.getvalue(), bundle


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_cli_never_crashes(case):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "dynamic").mkdir()
        for name, data in case.items():
            if isinstance(data, bytes):
                (root / name).write_bytes(data)
        code, err, bundle = run_once(root, case, root / "out")
        event(f"exit {code}")
        event("a long digit run" if any(isinstance(data, bytes) and re.search(LONG_RUN, data)
                                        for data in case.values()) else "no long digit run")
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code == 2:
            assert err.count("error: ") == 1, err
        else:
            assert run_once(root, case, root / "again") == (code, err, bundle)


LONG_RUNS = {  # input kind: its files, and where a long digit run sits in the text
    "static model": ("static_model.json", rb'"line": ' + LONG_RUN),
    "event log": ("dynamic/events.jsonl", LONG_RUN),
    "dot state id": ("dynamic/global.dot", LONG_RUN + rb"( ->|;)"),
    "dot frequency": ("dynamic/global.dot", rb"\| " + LONG_RUN),
    "config": ("config.txt", rb"= " + LONG_RUN),
    "scenario spec": ("spec.json", rb": " + LONG_RUN),
}


@pytest.mark.parametrize("kind", sorted(LONG_RUNS))
def test_every_input_kind_draws_long_digit_runs(kind):
    """The near-valid documents put a run of more digits than int() converts
    in every input kind, .dot state ids and frequencies included."""
    name, pattern = LONG_RUNS[kind]
    find(FILES[name].map(render), lambda data: re.search(pattern, data) is not None,
         settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))
