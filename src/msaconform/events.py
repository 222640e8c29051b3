"""HTTP event log ingestion and trace extraction.

Event log format: JSON Lines, one object per line with fields
``ts`` (int, ms since epoch), ``src`` (str), ``dst`` (str), ``method`` (str),
``path`` (str) and optional ``status`` (int).

Events become alphabet symbols of the form ``<src>→<dst>:<METHOD> <path>``
and are cut into bounded traces whenever the idle gap between consecutive
events exceeds a configurable threshold.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import MalformedLine, MissingEventField
from .static_model import normalize_name

HTTP_METHODS = frozenset({"GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS"})

_UUID_RE = re.compile(
    r"^[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}$"
)

ARROW = "→"


@dataclass(frozen=True)
class HttpEvent:
    ts: int
    src: str
    dst: str
    method: str
    path: str
    status: int | None = None


@dataclass(frozen=True)
class Trace:
    symbols: tuple[str, ...]
    origin: str = ""


def format_symbol(src: str, dst: str, method: str, path: str) -> str:
    return f"{src}{ARROW}{dst}:{method} {path}"


def parse_symbol(symbol: str) -> tuple[str, str, str, str]:
    """Split a symbol back into (src, dst, method, path); raises ValueError."""
    src, _, rest = symbol.partition(ARROW)
    dst, _, call = rest.partition(":")
    method, _, path = call.partition(" ")
    if not (src and dst and method and path.startswith("/")):
        raise ValueError(f"malformed symbol: {symbol!r}")
    return src, dst, method, path


def template_path(path: str) -> str:
    """Replace volatile path segments with ``{}`` and strip the query string."""
    path = path.split("?", 1)[0]
    segments = path.split("/")
    out = []
    for seg in segments:
        if seg and (seg.isdigit() or _UUID_RE.match(seg) or len(seg) > 24):
            out.append("{}")
        else:
            out.append(seg)
    return "/".join(out)


def parse_event_log(jsonl_text: str) -> list[HttpEvent]:
    """Parse a JSON Lines event log; blank lines are skipped."""
    events: list[HttpEvent] = []
    for line_no, line in enumerate(jsonl_text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLine(line_no, str(exc)) from exc
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
        events.append(
            HttpEvent(
                ts=ts,
                src=normalize_name(str(obj["src"])),
                dst=normalize_name(str(obj["dst"])),
                method=method,
                path=path,
                status=status,
            )
        )
    return events


GLOBAL_SCOPE = "global"


def _segment(events: list[HttpEvent], gap_ms: int, origin: str) -> list[Trace]:
    traces: list[Trace] = []
    current: list[str] = []
    prev_ts: int | None = None
    start_idx = 0
    for i, ev in enumerate(events):
        if prev_ts is not None and ev.ts - prev_ts > gap_ms:
            traces.append(Trace(tuple(current), origin=f"{origin}[{start_idx}:{i}]"))
            current = []
            start_idx = i
        current.append(format_symbol(ev.src, ev.dst, ev.method, template_path(ev.path)))
        prev_ts = ev.ts
    if current:
        traces.append(Trace(tuple(current), origin=f"{origin}[{start_idx}:{len(events)}]"))
    return traces


def extract_traces(
    events: list[HttpEvent], gap_ms: int, scope: str = "global"
) -> dict[str, list[Trace]]:
    """Sessionize events into traces, keyed by scope.

    ``scope`` is ``"global"`` (one key covering all events), ``"per_service"``
    (one key per service, keeping events where it is src or dst), or
    ``"both"``.
    """
    if gap_ms <= 0:
        raise ValueError("gap_ms must be positive")
    if scope not in ("global", "per_service", "both"):
        raise ValueError(f"unknown scope {scope!r}")
    ordered = sorted(events, key=lambda e: e.ts)  # stable: preserves input order on ties
    out: dict[str, list[Trace]] = {}
    if not ordered:
        return out
    if scope in ("global", "both"):
        out[GLOBAL_SCOPE] = _segment(ordered, gap_ms, GLOBAL_SCOPE)
    if scope in ("per_service", "both"):
        services = sorted({e.src for e in ordered} | {e.dst for e in ordered})
        for svc in services:
            involved = [e for e in ordered if e.src == svc or e.dst == svc]
            out[svc] = _segment(involved, gap_ms, svc)
    return out
