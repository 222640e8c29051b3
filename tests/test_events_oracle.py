"""The event-log parser gives exactly what the former one did.

``_reference_events`` keeps the former ``parse_event_log`` verbatim. Every
case here requires equal event lists, or an error of the same type and
message, which names the line. Three errors are meant to differ: where the
reference lets a number too long for ``int()`` escape as a bare
``ValueError``, the parser must reject that line with an ``InputError``;
where the reference echoes an unknown method longer than the bound of
``errors.clip``, the parser echoes it clipped; and where the reference
turns a ``src`` or ``dst`` that is not a JSON string into a name with
``str()``, the parser rejects the line. The lines are built as raw JSON
text, so they can hold what ``json.dumps`` never writes: duplicate keys,
``NaN``, lone surrogate escapes, numbers too long to convert, surrounding
whitespace, a byte order mark and trailing data.
"""

import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_events as reference
from _reference_events import HttpEvent, as_events
from msaconform import events
from msaconform.errors import InputError, clip
from msaconform.events import parse_event_log
from msaconform.scenario import ScenarioSpec, generate

FIELDS = ("ts", "src", "dst", "method", "path")
# every character str.splitlines splits on
SEPARATORS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029")
# far from the recursion limit on either side, so both parsers agree
DEEP = "[" * 100_000
NESTED = "[" * 40 + "]" * 40
METHOD_ECHO = "unknown HTTP method "
NOT_A_STRING = re.compile(r"malformed event log line (\d+): (src|dst) must be a string")


def parse(text):
    """The parser's events, as the reference returns them."""
    return as_events(parse_event_log(text))


def outcome(parse, text):
    """The events, or the error's type and message."""
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)


def assert_same(text):
    got, want = outcome(parse, text), outcome(reference.parse_event_log, text)
    # the parser rejects a line whose src or dst is not a string, which the
    # reference turns into one: with those names made strings, the two agree
    # up to that line, and the parser gets past every check before the names'
    rejected = isinstance(got, tuple) and NOT_A_STRING.fullmatch(got[1])
    if rejected:
        line_no, field = int(rejected[1]), rejected[2]
        lines = text.splitlines()
        obj = json.loads(lines[line_no - 1])
        assert not isinstance(obj[field], str)
        assert field == "src" or isinstance(obj["src"], str)
        obj.update((key, "a") for key in ("src", "dst") if not isinstance(obj[key], str))
        named = "\n".join([*lines[:line_no - 1], json.dumps(obj)])
        assert_same(named)
        after = outcome(parse, named)
        assert isinstance(after, list) or "normalization" in after[1] or "reserved" in after[1]
        return
    # the parser cuts an unknown method's echo to the bound; the reference echoes it whole
    if isinstance(want, tuple) and want[0] is InputError and METHOD_ECHO in want[1]:
        head, _, echo = want[1].partition(METHOD_ECHO)
        want = (want[0], head + METHOD_ECHO + clip(echo))
    # the reference lets int()'s digit limit through as a bare ValueError, which
    # has no line number: the line is the first one that fails on its own
    if isinstance(want, tuple) and want[0] is ValueError and "Exceeds the limit" in want[1]:
        line_no = next(i for i, line in enumerate(text.splitlines(), start=1)
                       if not isinstance(outcome(reference.parse_event_log, line), list))
        assert got[0] is InputError
        assert got[1].startswith(f"malformed event log line {line_no}: ")
    else:
        assert got == want


def mostly(valid, invalid):
    """``valid`` seven times in eight."""
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda ok: valid if ok else invalid)


def as_json(values):
    return st.sampled_from(values).map(json.dumps)


odd_values = st.sampled_from([
    "true", "false", "null", "NaN", "Infinity", "-Infinity", "1.5", "-3", "1e3", '""',
    "[]", "{}", NESTED, '"\\ud800"', '"/\\udc00x"', '"\\u00e9"', "9" * 5000, "tru", '"\\x"',
])
VALUES = {
    "ts": mostly(st.integers(0, 10**9).map(str), odd_values),
    "src": mostly(as_json(["a", "B c", "svc_1", "web"]),
                  as_json(["global", "Global!", "--", "é"]) | odd_values),
    "dst": mostly(as_json(["a", "b", "order-svc", "web"]),
                  as_json(["global", "", "x y z"]) | odd_values),
    "method": mostly(as_json(["GET", "post", "Put", "DELETE"]),
                     as_json(["FROB", "", 1, ["GET"]]) | odd_values),
    "path": mostly(as_json(["/x", "/y/1", "/z?q=1", "/a b"]), as_json(["x", "", 5]) | odd_values),
    "status": mostly(as_json([200, 404, None]), odd_values),
}


@st.composite
def event_objects(draw):
    """An event as JSON text: fields in any order, now and then one missing,
    one extra or one given twice (the last value wins)."""
    names = [*FIELDS, "status"]
    pairs = [(name, draw(VALUES[name])) for name in names]
    if draw(st.integers(0, 5)) == 0:
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))
    if draw(st.integers(0, 5)) == 0:
        name = draw(st.sampled_from(names))
        pairs.insert(draw(st.integers(0, len(pairs))), (name, draw(VALUES[name])))
    if draw(st.integers(0, 7)) == 0:
        pairs.append(("extra", draw(odd_values)))
    pairs = draw(st.permutations(pairs))
    sep = draw(st.sampled_from([", ", ",", " ,\t"]))
    colon = draw(st.sampled_from([": ", ":", " : "]))
    return "{" + sep.join(f'"{key}"{colon}{value}' for key, value in pairs) + "}"


other_lines = st.one_of(
    st.sampled_from(["", " ", "\t", "\xa0", "[]", "1", '"s"', "null", "true", "NaN", "{}{}",
                     DEEP, NESTED, "{", "}", '{"ts": 1', '"\\ud800"', "\ufeff", "9" * 5000]),
    st.text(max_size=6),
)
lines = mostly(
    st.tuples(
        mostly(st.just(""), st.sampled_from([" ", "\t", " \t", "\ufeff", "\xa0", "\u3000"])),
        event_objects(),
        mostly(st.just(""), st.sampled_from([" ", "\t", "{}", " x", "]", "\xa0", "\ufeff"])),
    ).map("".join),
    other_lines,
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(lines, st.sampled_from(SEPARATORS)), max_size=8))
def test_matches_reference(log):
    assert_same("".join(line + sep for line, sep in log))


VALID = '{"ts": 7, "src": "Web", "dst": "order", "method": "get", "path": "/o/1", "status": 200}'
EXAMPLES = {
    "leading space": " " + VALID,
    "leading tab": "\t" + VALID,
    "trailing space": VALID + " \t",
    "ideographic space": VALID + "\u3000",
    "byte order mark": "\ufeff" + VALID,
    "mark after a line": VALID + "\n\ufeff" + VALID,
    "blank by vertical tab": VALID + "\x0b\x0b" + VALID,
    "blank by line separator": VALID + "\u2028 \u2028" + VALID,
    "blank by paragraph separator": "\u2029" + VALID,
    "extra data": VALID + "{}",
    "two objects": "{}{}",
    "closing bracket after": VALID + "]",
    "deep nesting": DEEP,
    "deep nesting in a field": VALID[:-1] + ', "x": ' + DEEP + "}",
    "shallow nesting in a field": VALID[:-1] + ', "x": ' + NESTED + "}",
    "duplicate ts": VALID.replace('"ts": 7', '"ts": 7, "ts": 9'),
    "duplicate ts, bad then good": VALID.replace('"ts": 7', '"ts": true, "ts": 9'),
    "duplicate ts, good then bad": VALID.replace('"ts": 7', '"ts": 9, "ts": -1'),
    "boolean ts": VALID.replace('"ts": 7', '"ts": true'),
    "boolean status": VALID.replace('"status": 200', '"status": false'),
    "NaN ts": VALID.replace('"ts": 7', '"ts": NaN'),
    "NaN status": VALID.replace('"status": 200', '"status": NaN'),
    "too many digits": VALID.replace('"ts": 7', '"ts": ' + "9" * 5000),
    "array": "[1, 2]",
    "number": "12",
    "string": '"ts"',
    "null": "null",
    "lone surrogate in path": VALID.replace('"/o/1"', '"/o/\\ud800"'),
    "lone surrogate as src": VALID.replace('"Web"', '"\\udc00"'),
    "bad escape": VALID.replace('"/o/1"', '"/o/\\x"'),
    "service named global": VALID.replace('"order"', '"GLOBAL"'),
    "unknown method": VALID.replace('"get"', '"brew"'),
    "relative path": VALID.replace('"/o/1"', '"o/1"'),
    "null src": VALID.replace('"Web"', "null"),
    "object dst": VALID.replace('"order"', '{"Order": [1]}'),
    "number src and dst": VALID.replace('"Web"', "1.5").replace('"order"', "2"),
    "number src, boolean status": VALID.replace('"Web"', "7").replace("200", "true"),
    "array dst, src named global": VALID.replace('"Web"', '"global"').replace('"order"', "[]"),
}
for field in FIELDS:
    EXAMPLES[f"missing {field}"] = VALID.replace(f'"{field}": ', '"other": ')
    EXAMPLES[f"missing {field} and later ones"] = VALID.split(f'"{field}"')[0].rstrip(", ") + "}"


@pytest.mark.parametrize("text", EXAMPLES.values(), ids=EXAMPLES.keys())
def test_examples_match_reference(text):
    assert_same(text)
    assert_same(VALID + "\n" + text)  # the same line second, for its line number


def test_duplicate_key_last_wins():
    events = parse(VALID.replace('"ts": 7', '"ts": 7, "ts": 9'))
    assert events == [HttpEvent(9, "web", "order", "GET", "/o/1")]


def test_scenario_log_matches_reference():
    spec = ScenarioSpec(n_services=12, n_edges=30, n_injected_static_nc=2,
                        n_injected_dynamic_nc=2, n_events=3000, rng_seed=4)
    _model, log, _truth = generate(spec)
    events = parse(log)
    assert len(events) == 3000
    assert events == reference.parse_event_log(log)


# every separator once, and "\r\n" and "\n" beside each other and doubled
ALL_SEPARATORS = "".join(f"a{sep}" for sep in SEPARATORS) + "\r\n\n\r\n\r\n\n\nb\r\r\n"


def block_lines(text):
    """The lines of ``text``, split one block at a time as the parser splits them."""
    size = events._BLOCK_CHARS
    pieces = (text[i:i + size] for i in range(0, len(text), size))
    return [line for text, start, end in events._blocks(pieces)
            for line in text[start:end].splitlines()]


def test_every_block_size_gives_the_same_lines():
    for block in range(1, len(ALL_SEPARATORS) + 2):
        with mock.patch.object(events, "_BLOCK_CHARS", block):
            assert block_lines(ALL_SEPARATORS) == ALL_SEPARATORS.splitlines(), block


@st.composite
def logs_across_cuts(draw):
    r"""A log that ends its lines with every separator, in any order, and some
    more "\n" and "\r\n"; its lines are mostly a valid event or blank, now
    and then any line of the oracle test, so an error comes after some cuts."""
    seps = draw(st.permutations(
        [*SEPARATORS, *draw(st.lists(st.sampled_from(["\n", "\r\n"]), max_size=8))]))
    line = mostly(st.sampled_from([VALID, VALID.replace("7", "8"), "", " "]), lines)
    return "".join(draw(line) + sep for sep in seps) + draw(st.sampled_from(["", VALID]))


@settings(max_examples=300, deadline=None)
@given(logs_across_cuts(), st.integers(1, 200))
def test_block_cuts_match_reference(log, block):
    r"""Blocks of 1 to 200 characters cut the log after most "\n"; the
    lines, events, errors and line numbers stay those of the reference."""
    with mock.patch.object(events, "_BLOCK_CHARS", block):
        assert block_lines(log) == log.splitlines()
        assert_same(log)


@settings(max_examples=300, deadline=None)
@given(logs_across_cuts(), st.lists(st.integers(0, 400), max_size=8))
def test_pieces_cut_anywhere_match_the_whole_text(log, cuts):
    r"""A log given as pieces cut anywhere, between a "\r" and its "\n" or
    inside a line, gives what the whole text gives."""
    bounds = [0, *sorted(min(cut, len(log)) for cut in cuts), len(log)]
    pieces = [log[start:end] for start, end in zip(bounds, bounds[1:])]
    assert outcome(lambda _text: as_events(parse_event_log(iter(pieces))), log) == (
        outcome(parse, log))


# a string field's text between its quotes, as json.dumps would write it
PLAIN_TEXT = {"src": ["a", "Web", "svc-1"], "dst": ["b", "order", "svc-2"],
              "method": ["GET", "post"], "path": ["/x", "/y/1", "/a b"]}
# what the dumps-shaped pattern must refuse or read as its value: escapes, each
# line separator raw, and characters json.dumps escapes but JSON allows raw
ODD_TEXT = ['\\"', "\\\\", "\\n", "\\u00e9", "\\ud800", *SEPARATORS, "\x7f", "é", "漢字"]
ODD_TS = ["0", "007", "-1", "1" * 18, "1" * 19, "9" * 5000, "1e3"]
ODD_STATUS = ["null", "true", "1.5", "-3", "0", "-0"]


def dumps_text(field):
    plain = st.sampled_from(PLAIN_TEXT[field])
    odd = st.tuples(plain, st.sampled_from(ODD_TEXT)).flatmap(st.permutations).map("".join)
    return mostly(plain, odd).map(lambda text: f'"{text}"')


@st.composite
def dumps_calls(draw):
    """An event's text after its ``ts``, in the shape ``json.dumps`` writes,
    but with field text it never writes."""
    call = ", ".join(f'"{field}": {draw(dumps_text(field))}'
                     for field in ("src", "dst", "method", "path"))
    status = draw(mostly(st.sampled_from([None, "200", "404"]), st.sampled_from(ODD_STATUS)))
    return call + ("" if status is None else ', "status": ' + status)


@st.composite
def dumps_shaped_logs(draw):
    """A log of event lines in exactly the shape ``json.dumps`` writes, now
    and then with a trailing space, and half the time with a ``ts`` it never
    writes; the lines draw their calls from a few, so that most calls repeat."""
    calls = [VALID.partition(", ")[2][:-1], *draw(st.lists(dumps_calls(), min_size=1,
                                                           max_size=3))]
    line = st.tuples(st.integers(0, 10**9).map(str) | st.sampled_from(ODD_TS),
                     st.sampled_from(calls), mostly(st.just(""), st.just(" ")))
    lines = draw(st.lists(line.map(lambda parts: '{"ts": %s, %s}%s' % parts), max_size=12))
    seps = draw(st.lists(mostly(st.just("\n"), st.just("\r\n")),
                         min_size=len(lines), max_size=len(lines)))
    last = draw(st.sampled_from(["", VALID, lines[0] if lines else ""]))
    return "".join(line + sep for line, sep in zip(lines, seps)) + last


@settings(max_examples=400, deadline=None)
@given(dumps_shaped_logs(), st.sampled_from([1, 40, 100, 250, 1 << 16]))
def test_dumps_shaped_lines_match_reference(log, block):
    """Blocks of all-dumps-shaped lines are read by the pattern, the others
    line by line; a block may switch ways from one log to the next."""
    with mock.patch.object(events, "_BLOCK_CHARS", block):
        assert_same(log)


def test_each_distinct_call_checked_once():
    spec = ScenarioSpec(n_services=12, n_edges=30, n_injected_static_nc=2,
                        n_injected_dynamic_nc=2, n_events=3000, rng_seed=1)
    _model, log, _truth = generate(spec)
    with mock.patch.object(events, "_read_line", wraps=events._read_line) as read_line:
        parsed = parse_event_log(log)
    distinct = {line.partition(", ")[2] for line in log.splitlines()}  # each line after its ts
    assert read_line.call_count == len(distinct) < len(parsed) // 10
    assert as_events(parsed) == reference.parse_event_log(log)
