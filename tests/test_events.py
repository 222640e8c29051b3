"""Event log parsing, path templating, symbol round-trip, sessionization."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msaconform.errors import MalformedLine, MissingEventField
from msaconform.events import (
    HttpEvent,
    Trace,
    extract_traces,
    format_symbol,
    parse_event_log,
    parse_symbol,
    template_path,
)


def line(ts, src="web", dst="order", method="GET", path="/x", status=200):
    return json.dumps(
        {"ts": ts, "src": src, "dst": dst, "method": method, "path": path, "status": status}
    )


class TestParseEventLog:
    def test_single_line(self):
        text = '{"ts":1000,"src":"web","dst":"order","method":"GET","path":"/orders/7","status":200}'
        events = parse_event_log(text)
        assert events == [
            HttpEvent(ts=1000, src="web", dst="order", method="GET", path="/orders/7", status=200)
        ]

    def test_empty_input(self):
        assert parse_event_log("") == []

    def test_missing_dst(self):
        text = '{"ts":1,"src":"a","method":"GET","path":"/x"}'
        with pytest.raises(MissingEventField) as exc:
            parse_event_log(text)
        assert exc.value.field == "dst"

    def test_malformed_line_number(self):
        text = line(1) + "\n{broken"
        with pytest.raises(MalformedLine) as exc:
            parse_event_log(text)
        assert exc.value.line_no == 2

    def test_status_optional(self):
        text = '{"ts":1,"src":"a","dst":"b","method":"GET","path":"/x"}'
        assert parse_event_log(text)[0].status is None

    def test_names_normalized(self):
        text = '{"ts":1,"src":"Order Service","dst":"B","method":"GET","path":"/x"}'
        ev = parse_event_log(text)[0]
        assert ev.src == "order-service"
        assert ev.dst == "b"

    @pytest.mark.parametrize("ts", [True, False])
    def test_boolean_ts_rejected(self, ts):
        text = json.dumps({"ts": ts, "src": "a", "dst": "b", "method": "GET", "path": "/x"})
        with pytest.raises(MalformedLine, match="ts must be"):
            parse_event_log(text)

    @pytest.mark.parametrize("status", [True, False])
    def test_boolean_status_rejected(self, status):
        with pytest.raises(MalformedLine, match="status must be"):
            parse_event_log(line(1, status=status))

    def test_bad_method(self):
        with pytest.raises(MalformedLine):
            parse_event_log(line(1, method="FROB"))

    def test_path_must_start_with_slash(self):
        with pytest.raises(MalformedLine):
            parse_event_log(line(1, path="x"))

    @pytest.mark.parametrize("src, dst", [("global", "c"), ("a", "Global")])
    def test_global_service_name_reserved(self, src, dst):
        # a service named "global" would replace the global scope's traces
        text = line(0, src="a", dst="b") + "\n" + line(10, src=src, dst=dst)
        with pytest.raises(MalformedLine, match="service name 'global' is reserved") as exc:
            parse_event_log(text)
        assert exc.value.line_no == 2

    def test_input_order_preserved(self):
        text = "\n".join(line(t) for t in (5, 3, 9))
        assert [e.ts for e in parse_event_log(text)] == [5, 3, 9]


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
        traces = extract_traces(events, gap_ms=1000, scope="global")["global"]
        assert [len(t.symbols) for t in traces] == [2, 1]

    def test_single_event(self):
        events = [HttpEvent(ts=0, src="a", dst="b", method="GET", path="/x")]
        traces = extract_traces(events, gap_ms=1000, scope="global")["global"]
        assert len(traces) == 1 and len(traces[0].symbols) == 1

    def test_empty(self):
        assert extract_traces([], gap_ms=1000, scope="both") == {}

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
        got = [t.symbols for t in extract_traces(events, 1000, scope="global")["global"]]
        assert got == brute_force_segment(events, 1000)

    def test_segmentation_loses_nothing(self):
        rng = random.Random(3)
        ts = 0
        events = []
        for _ in range(300):
            ts += rng.choice([5, 2000])
            events.append(HttpEvent(ts=ts, src="a", dst="b", method="GET", path=f"/p{rng.randint(0,5)}"))
        traces = extract_traces(events, 1000, scope="global")["global"]
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
        a = extract_traces(events, 1000, scope="global")["global"]
        b = extract_traces(shuffled, 1000, scope="global")["global"]
        assert [t.symbols for t in a] == [t.symbols for t in b]

    def test_per_service_scope(self):
        events = [
            HttpEvent(ts=0, src="a", dst="b", method="GET", path="/x"),
            HttpEvent(ts=10, src="b", dst="c", method="GET", path="/y"),
        ]
        scoped = extract_traces(events, 1000, scope="per_service")
        assert set(scoped) == {"a", "b", "c"}
        assert len(scoped["b"][0].symbols) == 2  # b is involved in both events
        assert len(scoped["a"][0].symbols) == 1

    def test_both_scope_has_global_and_services(self):
        events = [HttpEvent(ts=0, src="a", dst="b", method="GET", path="/x")]
        scoped = extract_traces(events, 1000, scope="both")
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
                origin=f"{name}[{a}:{b}]",
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
    got = extract_traces(events, gap_ms, scope=scope)
    assert list(got.items()) == list(reference_traces(events, gap_ms, scope).items())
