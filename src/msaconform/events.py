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
# scope key of the trace set over all events; no service may take this name
GLOBAL_SCOPE = "global"


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
                status=status,
            )
        )
    return events


def _segment(stamped: list[tuple[int, str]], gap_ms: int, origin: str) -> list[Trace]:
    traces: list[Trace] = []
    current: list[str] = []
    prev_ts: int | None = None
    start_idx = 0
    for i, (ts, symbol) in enumerate(stamped):
        if prev_ts is not None and ts - prev_ts > gap_ms:
            traces.append(Trace(tuple(current), origin=f"{origin}[{start_idx}:{i}]"))
            current = []
            start_idx = i
        current.append(symbol)
        prev_ts = ts
    if current:
        traces.append(Trace(tuple(current), origin=f"{origin}[{start_idx}:{len(stamped)}]"))
    return traces


def extract_traces(
    events: list[HttpEvent], gap_ms: int, scope: str = "global"
) -> dict[str, list[Trace]]:
    """Sessionize events into traces, keyed by scope.

    ``scope`` is ``"global"`` (one key covering all events), ``"per_service"``
    (one key per service, in sorted order, keeping events where it is src or
    dst), or ``"both"`` (global first). A trace's ``origin`` is
    ``<scope>[start:end]``, its slice of that scope's time-ordered events.
    One sweep fills every scope, formatting each distinct call once.
    """
    if gap_ms <= 0:
        raise ValueError("gap_ms must be positive")
    if scope not in ("global", "per_service", "both"):
        raise ValueError(f"unknown scope {scope!r}")
    symbols: dict[tuple[str, str, str, str], str] = {}
    whole: list[tuple[int, str]] = []
    by_service: dict[str, list[tuple[int, str]]] = {}
    with_global = scope in ("global", "both")
    with_services = scope in ("per_service", "both")
    for ev in sorted(events, key=lambda e: e.ts):  # stable: preserves input order on ties
        call = (ev.src, ev.dst, ev.method, ev.path)
        if call not in symbols:
            symbols[call] = format_symbol(ev.src, ev.dst, ev.method, template_path(ev.path))
        item = (ev.ts, symbols[call])
        if with_global:
            whole.append(item)
        if with_services:
            by_service.setdefault(ev.src, []).append(item)
            if ev.dst != ev.src:
                by_service.setdefault(ev.dst, []).append(item)
    out: dict[str, list[Trace]] = {}
    if whole:
        out[GLOBAL_SCOPE] = _segment(whole, gap_ms, GLOBAL_SCOPE)
    for svc in sorted(by_service):
        out[svc] = _segment(by_service[svc], gap_ms, svc)
    return out
