"""Event log parsing, path templating, symbol round-trip, sessionization."""

import json
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_events as reference
from _reference_events import HttpEvent, as_events, as_log, event_calls
from msaconform.errors import InputError
from msaconform.events import (
    Trace,
    extract_traces,
    format_symbol,
    parse_event_log,
    parse_symbol,
    template_path,
    unsigned_typecode,
)
from msaconform.scenario import ScenarioSpec, generate


def line(ts, src="web", dst="order", method="GET", path="/x", status=200):
    return json.dumps(
        {"ts": ts, "src": src, "dst": dst, "method": method, "path": path, "status": status}
    )


class TestParseEventLog:
    def test_single_line(self):
        text = '{"ts":1000,"src":"web","dst":"order","method":"GET","path":"/orders/7","status":200}'
        events = as_events(parse_event_log(text))
        assert events == [
            HttpEvent(ts=1000, src="web", dst="order", method="GET", path="/orders/7")
        ]

    def test_empty_input(self):
        assert as_events(parse_event_log("")) == []

    def test_missing_dst(self):
        text = '{"ts":1,"src":"a","method":"GET","path":"/x"}'
        with pytest.raises(InputError, match="^event log line 1: missing field 'dst'$"):
            parse_event_log(text)

    def test_malformed_line_number(self):
        text = line(1) + "\n{broken"
        with pytest.raises(InputError, match="^malformed event log line 2: "):
            parse_event_log(text)

    def test_status_optional(self):
        text = '{"ts":1,"src":"a","dst":"b","method":"GET","path":"/x"}'
        assert as_events(parse_event_log(text)) == [
            HttpEvent(ts=1, src="a", dst="b", method="GET", path="/x")]

    def test_names_normalized(self):
        text = '{"ts":1,"src":"Order Service","dst":"B","method":"GET","path":"/x"}'
        ev = as_events(parse_event_log(text))[0]
        assert ev.src == "order-service"
        assert ev.dst == "b"

    @pytest.mark.parametrize("ts", [True, False])
    def test_boolean_ts_rejected(self, ts):
        text = json.dumps({"ts": ts, "src": "a", "dst": "b", "method": "GET", "path": "/x"})
        with pytest.raises(InputError, match="^malformed event log line 1: ts must be"):
            parse_event_log(text)

    @pytest.mark.parametrize("status", [True, False])
    def test_boolean_status_rejected(self, status):
        with pytest.raises(InputError, match="^malformed event log line 1: status must be"):
            parse_event_log(line(1, status=status))

    def test_bad_method(self):
        with pytest.raises(InputError,
                           match="^malformed event log line 1: unknown HTTP method 'FROB'$"):
            parse_event_log(line(1, method="FROB"))

    def test_path_must_start_with_slash(self):
        with pytest.raises(InputError,
                           match="^malformed event log line 1: path must begin with '/'$"):
            parse_event_log(line(1, path="x"))

    @pytest.mark.parametrize("escape", ["\\n", "\\u2028"])
    def test_path_must_not_hold_a_line_break(self, escape):
        # the symbol's path would break its line in a finding page's diagram
        text = line(0) + "\n" + line(10).replace('"/x"', f'"/x{escape}y"')
        assert escape in text
        with pytest.raises(InputError, match="^malformed event log line 2: "
                                             "path must not hold a line break$"):
            parse_event_log(text)

    @pytest.mark.parametrize("src, dst", [("global", "c"), ("a", "Global")])
    def test_global_service_name_reserved(self, src, dst):
        # a service named "global" would replace the global scope's traces
        text = line(0, src="a", dst="b") + "\n" + line(10, src=src, dst=dst)
        with pytest.raises(InputError,
                           match="^malformed event log line 2: service name 'global' is reserved$"):
            parse_event_log(text)

    @pytest.mark.parametrize("src, dst, field", [
        (None, {"Order": [1]}, "src"), (1.5, "b", "src"), ("a", ["b"], "dst"), ("a", True, "dst"),
    ])
    def test_service_names_must_be_strings(self, src, dst, field):
        # str() would turn null into the service "none" and a number into "1-5"
        text = line(0) + "\n" + line(10, src=src, dst=dst)
        with pytest.raises(InputError,
                           match=f"^malformed event log line 2: {field} must be a string$"):
            parse_event_log(text)

    def test_input_order_preserved(self):
        text = "\n".join(line(t) for t in (5, 3, 9))
        assert list(parse_event_log(text).stamps) == [5, 3, 9]


class TestTemplatePath:
    def test_numeric_segment(self):
        assert template_path("/orders/42") == "/orders/{}"

    def test_identity(self):
        assert template_path("/health") == "/health"

    def test_uuid_and_query(self):
        assert template_path("/u/550e8400-e29b-41d4-a716-446655440000?x=1") == "/u/{}"

    def test_long_segment(self):
        assert template_path("/t/" + "a" * 30) == "/t/{}"

    def test_idempotent(self):
        for p in ("/orders/42", "/health", "/a/b/c", "/u/7/x"):
            assert template_path(template_path(p)) == template_path(p)


class TestSymbol:
    def test_round_trip(self):
        s = format_symbol("a", "b", "GET", "/x/{}")
        assert parse_symbol(s) == ("a", "b", "GET", "/x/{}")

    def test_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(200):
            src = f"svc-{rng.randint(0, 9)}"
            dst = f"other-{rng.randint(0, 9)}"
            method = rng.choice(["GET", "POST", "DELETE"])
            path = "/" + "/".join(rng.choice(["a", "b", "{}"]) for _ in range(rng.randint(1, 4)))
            quad = (src, dst, method, path)
            assert parse_symbol(format_symbol(*quad)) == quad

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_symbol("no-arrow-here")

    @pytest.mark.parametrize("path", ["/x\ny", "/x\n", "/x\u2028y", "/x\ry"])
    def test_path_with_a_line_break(self, path):
        with pytest.raises(ValueError):
            parse_symbol(format_symbol("a", "b", "GET", path))


def brute_force_segment(events, gap_ms):
    """Independent oracle: plain re-scan without any incremental state."""
    events = sorted(events, key=lambda e: e.ts)
    cuts = [0]
    for i in range(1, len(events)):
        if events[i].ts - events[i - 1].ts > gap_ms:
            cuts.append(i)
    cuts.append(len(events))
    out = []
    for a, b in zip(cuts, cuts[1:]):
        out.append(
            tuple(
                format_symbol(e.src, e.dst, e.method, template_path(e.path))
                for e in events[a:b]
            )
        )
    return out


class TestExtractTraces:
    def test_gap_rule(self):
        events = [
            HttpEvent(ts=t, src="a", dst="b", method="GET", path="/x") for t in (0, 100, 5000)
        ]
        traces = extract_traces(as_log(events), gap_ms=1000, scope="global")["global"]
        assert [len(t.symbols) for t in traces] == [2, 1]

    def test_single_event(self):
        events = [HttpEvent(ts=0, src="a", dst="b", method="GET", path="/x")]
        traces = extract_traces(as_log(events), gap_ms=1000, scope="global")["global"]
        assert len(traces) == 1 and len(traces[0].symbols) == 1

    def test_empty(self):
        assert extract_traces(as_log([]), gap_ms=1000, scope="both") == {}

    def test_against_brute_force_oracle(self):
        rng = random.Random(77)
        ts = 0
        events = []
        for _ in range(200):
            ts += rng.choice([10, 50, 200, 1500, 4000])
            events.append(
                HttpEvent(
                    ts=ts,
                    src=f"s{rng.randint(0, 3)}",
                    dst=f"d{rng.randint(0, 3)}",
                    method="GET",
                    path=f"/p{rng.randint(0, 2)}",
                )
            )
        got = [t.symbols for t in extract_traces(as_log(events), 1000, scope="global")["global"]]
        assert got == brute_force_segment(events, 1000)

    def test_segmentation_loses_nothing(self):
        rng = random.Random(3)
        ts = 0
        events = []
        for _ in range(300):
            ts += rng.choice([5, 2000])
            events.append(HttpEvent(ts=ts, src="a", dst="b", method="GET", path=f"/p{rng.randint(0,5)}"))
        traces = extract_traces(as_log(events), 1000, scope="global")["global"]
        flat = [s for t in traces for s in t.symbols]
        expected = [
            format_symbol(e.src, e.dst, e.method, template_path(e.path))
            for e in sorted(events, key=lambda e: e.ts)
        ]
        assert flat == expected

    def test_order_independent_after_sort(self):
        events = [
            HttpEvent(ts=t, src="a", dst="b", method="GET", path=f"/p{t}") for t in (30, 10, 20)
        ]
        shuffled = [events[2], events[0], events[1]]
        a = extract_traces(as_log(events), 1000, scope="global")["global"]
        b = extract_traces(as_log(shuffled), 1000, scope="global")["global"]
        assert [t.symbols for t in a] == [t.symbols for t in b]

    def test_per_service_scope(self):
        events = [
            HttpEvent(ts=0, src="a", dst="b", method="GET", path="/x"),
            HttpEvent(ts=10, src="b", dst="c", method="GET", path="/y"),
        ]
        scoped = extract_traces(as_log(events), 1000, scope="per_service")
        assert set(scoped) == {"a", "b", "c"}
        assert len(scoped["b"][0].symbols) == 2  # b is involved in both events
        assert len(scoped["a"][0].symbols) == 1

    def test_both_scope_has_global_and_services(self):
        events = [HttpEvent(ts=0, src="a", dst="b", method="GET", path="/x")]
        scoped = extract_traces(as_log(events), 1000, scope="both")
        assert set(scoped) == {"global", "a", "b"}


def reference_traces(events, gap_ms, scope):
    """Independent oracle for every scope: filter per service, then segment and format."""
    ordered = sorted(events, key=lambda e: e.ts)
    selections = []
    if scope in ("global", "both"):
        selections.append(("global", ordered))
    if scope in ("per_service", "both"):
        for svc in sorted({e.src for e in ordered} | {e.dst for e in ordered}):
            selections.append((svc, [e for e in ordered if svc in (e.src, e.dst)]))
    out = {}
    for name, selected in selections:
        if not selected:
            continue
        cuts = [0]
        cuts += [i for i in range(1, len(selected)) if selected[i].ts - selected[i - 1].ts > gap_ms]
        cuts.append(len(selected))
        out[name] = [
            Trace(
                tuple(format_symbol(e.src, e.dst, e.method, template_path(e.path))
                      for e in selected[a:b]),
            )
            for a, b in zip(cuts, cuts[1:])
        ]
    return out


# few names and paths so self-calls, repeated calls and equal timestamps are common
http_events = st.builds(
    HttpEvent,
    ts=st.integers(min_value=0, max_value=60),
    src=st.sampled_from(["a", "b", "c"]),
    dst=st.sampled_from(["a", "b", "c"]),
    method=st.sampled_from(["GET", "POST"]),
    path=st.sampled_from(["/x", "/x/1", "/x/2", "/y?q=1", "/y"]),
)


@settings(max_examples=300, deadline=None)
@given(
    events=st.lists(http_events, max_size=40),
    gap_ms=st.sampled_from([1, 5, 1000]),
    scope=st.sampled_from(["global", "per_service", "both"]),
)
def test_every_scope_matches_reference(events, gap_ms, scope):
    got = extract_traces(as_log(events), gap_ms, scope=scope)
    assert list(got.items()) == list(reference_traces(events, gap_ms, scope).items())


@pytest.fixture(scope="module")
def log_20k():
    spec = ScenarioSpec(n_services=20, n_edges=60, n_events=20_000, rng_seed=1)
    return generate(spec)[1]


@pytest.mark.parametrize("order", ["logged", "shuffled", "shuffled-ties"])
@pytest.mark.parametrize("scope", ["global", "per_service", "both"])
def test_every_scope_matches_reference_at_scale(log_20k, scope, order):
    """The log's stamps are distinct; rounding them down to 50 ms makes
    ties, which must keep their (shuffled) input order."""
    log = parse_event_log(log_20k)
    events = as_events(log)
    if order == "shuffled-ties":
        events = [ev._replace(ts=ev.ts - ev.ts % 50) for ev in events]
    if order != "logged":
        random.Random(12).shuffle(events)
        log = as_log(events)
    got = extract_traces(log, 1000, scope=scope)
    assert list(got.items()) == list(reference_traces(events, 1000, scope).items())


@pytest.mark.parametrize("ts", [2**63 - 1, 2**63, 10**30])
@pytest.mark.parametrize("after_pattern_block", [False, True])
def test_stamps_past_64_bits(ts, after_pattern_block):
    """A stamp too long for the pattern is read line by line, alone or after a
    block the pattern read; one past 64 bits turns the stamps into a list,
    and either way parse and sessionize give what the reference gives."""
    head = "".join(line(t) + "\n" for t in range(0, 30_000, 1000)) if after_pattern_block else ""
    # the leading space keeps the pattern off the block; the last stamp goes back in time
    tail = "".join(f" {line(t)}\n" for t in (ts - 5, ts, ts - 2000))
    log = parse_event_log([head, tail])
    assert type(log.stamps) is (array if ts < 2**63 else list)
    events = as_events(log)
    assert events == reference.parse_event_log(head + tail)
    for scope in ("global", "per_service", "both"):
        assert extract_traces(log, 1000, scope) == reference_traces(events, 1000, scope)


def distinct_calls_log(n_calls: int, order: str) -> str:
    """A log of ``n_calls`` events, each its own call, over four services; its
    stamps are 400 ms apart, in line order or shuffled."""
    stamps = [i * 400 for i in range(n_calls)]
    if order == "unsorted":
        random.Random(7).shuffle(stamps)
    return "".join(f"{line(ts, 'abcd'[i % 4], 'abcd'[i // 4 % 4], path=f'/p{i}')}\n"
                   for i, ts in enumerate(stamps))


@pytest.mark.parametrize("order", ["sorted", "unsorted"])
def test_id_column_widens_past_its_first_type(order):
    """A log with one more distinct call than an ``array('H')`` id holds has
    its id column widened, and gives the reference's events and, under
    every scope, the reference's traces."""
    text = distinct_calls_log((1 << 16) + 1, order)
    log = parse_event_log(text)
    assert (log.ids.typecode, len(log.table)) == ("I", (1 << 16) + 1)
    events = as_events(log)
    assert events == reference.parse_event_log(text)
    for scope in ("global", "per_service", "both"):
        got = extract_traces(log, 1000, scope)
        assert list(got.items()) == list(reference_traces(events, 1000, scope).items())


@pytest.mark.parametrize("n, code", [(0, "H"), ((1 << 16) - 1, "H"), (1 << 16, "I"),
                                     ((1 << 32) - 1, "I"), (1 << 32, "Q"), ((1 << 64) - 1, "Q")])
def test_typecode_is_the_narrowest_that_holds_the_bound(n, code):
    """The one width rule of the id column and of a call index's depths:
    the narrowest unsigned type whose items hold ``n``."""
    assert unsigned_typecode(n) == code
    assert array(code, [n])[0] == n


def test_id_column_keeps_its_first_type_while_ids_fit():
    log = parse_event_log(distinct_calls_log(1 << 16, "sorted"))
    assert (log.ids.typecode, len(log.table), max(log.ids)) == ("H", 1 << 16, (1 << 16) - 1)


def test_parse_peak_memory_bounded(log_20k):
    """The parsed log and the parse's working memory stay within half the
    text (0.19 measured): the lines are split block by block, never all at
    once, and each event is an 8-byte stamp and a 2-byte index into the
    table of calls."""
    tracemalloc.start()
    try:
        parse_event_log(log_20k)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * len(log_20k)


@pytest.mark.parametrize("scope", ["global", "per_service", "both"])
def test_sessionize_peak_memory_bounded(log_20k, scope):
    """Sessionizing holds each scope's open session and one copy of each
    distinct session, never a copy of the log: its working memory stays
    within a tenth of the text (0.04 measured)."""
    log = parse_event_log(log_20k)
    tracemalloc.start()
    try:
        extract_traces(log, 1000, scope=scope)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * len(log_20k)


@pytest.mark.parametrize("scope", ["global", "per_service", "both"])
def test_equal_sessions_are_one_object(log_20k, scope):
    traces = [t for ts in extract_traces(parse_event_log(log_20k), 1000, scope=scope).values()
              for t in ts]
    first = {}  # each distinct session: the first trace of it
    for trace in traces:
        assert first.setdefault(trace, trace) is trace
    assert len(first) < len(traces) // 2


def test_equal_calls_are_one_tuple(log_20k):
    calls = event_calls(parse_event_log(log_20k))
    first = {}  # each distinct call: its first row's tuple
    for call in calls:
        assert first.setdefault(call, call) is call
    assert len(first) < len(calls) // 100


def test_events_share_method_and_path(log_20k):
    events = as_events(parse_event_log(log_20k))
    first = {}  # (method, path) -> the first event with them
    repeats = 0
    for ev in events:
        other = first.setdefault((ev.method, ev.path), ev)
        if other is not ev:
            assert other.method is ev.method and other.path is ev.path
            repeats += 1
    assert repeats > len(events) // 2
