"""Reference event-log parser: ``parse_event_log`` as it was before it called
the JSON scanner directly, kept verbatim as a test oracle, with the event
tuple it returned and adapters to and from the parser's columns.

Every line goes through ``json.loads`` and its three layers of wrappers, so
it is slower but simple enough to trust; ``test_events_oracle.py`` requires
the new parser to return equal events or raise the same error.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from msaconform.errors import InputError
from msaconform.events import GLOBAL_SCOPE, HTTP_METHODS, EventLog
from msaconform.static_model import normalize_name


class HttpEvent(NamedTuple):
    """One event, as the parser returned it before a log became two columns."""

    ts: int
    src: str
    dst: str
    method: str
    path: str


def event_calls(log: EventLog) -> list[tuple[str, str, str, str]]:
    """A parsed log's call of each event, in line order: its tuple in the table."""
    return list(map(log.table.__getitem__, log.ids))


def as_events(log: EventLog) -> list[HttpEvent]:
    """A parsed log's rows as events, to compare with the reference's."""
    return [HttpEvent(ts, *call) for ts, call in zip(log.stamps, event_calls(log))]


def as_log(events: list[HttpEvent]) -> EventLog:
    """Events as the columns ``extract_traces`` reads: each distinct call in
    the table once, in first-seen order."""
    ids: dict[tuple[str, str, str, str], int] = {}
    rows = [ids.setdefault(tuple(ev[1:]), len(ids)) for ev in events]
    return EventLog([ev.ts for ev in events], rows, list(ids))


# the former exception classes of these two errors, as the message each gave
def MalformedLine(line_no: int, reason: str) -> InputError:
    return InputError(f"malformed event log line {line_no}: {reason}")


def MissingEventField(line_no: int, field: str) -> InputError:
    return InputError(f"event log line {line_no}: missing field {field!r}")


def parse_event_log(jsonl_text: str) -> list[HttpEvent]:
    """Parse a JSON Lines event log; blank lines are skipped."""
    events: list[HttpEvent] = []
    names: dict[str, str] = {}  # raw service name -> normalized, per distinct name
    for line_no, line in enumerate(jsonl_text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLine(line_no, str(exc)) from exc
        except RecursionError as exc:
            raise MalformedLine(line_no, "nested too deeply") from exc
        if not isinstance(obj, dict):
            raise MalformedLine(line_no, "expected a JSON object")
        for field_name in ("ts", "src", "dst", "method", "path"):
            if field_name not in obj:
                raise MissingEventField(line_no, field_name)
        ts = obj["ts"]
        # type() and not isinstance(): JSON true/false load as bool, an int subclass
        if type(ts) is not int or ts < 0:
            raise MalformedLine(line_no, "ts must be a non-negative integer")
        method = str(obj["method"]).upper()
        if method not in HTTP_METHODS:
            raise MalformedLine(line_no, f"unknown HTTP method {obj['method']!r}")
        path = str(obj["path"])
        if not path.startswith("/"):
            raise MalformedLine(line_no, "path must begin with '/'")
        status = obj.get("status")
        if status is not None and type(status) is not int:
            raise MalformedLine(line_no, "status must be an integer")
        raw_src, raw_dst = str(obj["src"]), str(obj["dst"])
        src = names.get(raw_src) or names.setdefault(raw_src, normalize_name(raw_src))
        dst = names.get(raw_dst) or names.setdefault(raw_dst, normalize_name(raw_dst))
        if GLOBAL_SCOPE in (src, dst):
            raise MalformedLine(line_no, f"service name {GLOBAL_SCOPE!r} is reserved")
        events.append(
            HttpEvent(
                ts=ts,
                src=src,
                dst=dst,
                method=method,
                path=path,
            )
        )
    return events
