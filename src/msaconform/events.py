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
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

from .errors import InputError, clip, load_json
from .static_model import normalize_name

HTTP_METHODS = frozenset({"GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS"})

_UUID_RE = re.compile(
    r"^[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}$"
)

ARROW = "→"
# scope key of the trace set over all events; no service may take this name
GLOBAL_SCOPE = "global"


class HttpEvent(NamedTuple):
    ts: int
    src: str
    dst: str
    method: str
    path: str
    status: int | None = None


class Trace(NamedTuple):
    symbols: tuple[str, ...]


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


def _malformed(line_no: int, reason: str) -> InputError:
    return InputError(f"malformed event log line {line_no}: {reason}")


# the log's lines are split about this many characters at a time
_BLOCK_CHARS = 1 << 20


def _line_blocks(text: str):
    """The lines of ``text`` exactly as ``str.splitlines`` gives them, as one
    list per block, so that only one block's lines are alive at once.

    Each block ends just after a ``"\\n"``, which always ends a line (a
    ``"\\r\\n"`` pair at its ``"\\n"``); every other separator is one
    character, so no line or separator straddles a cut."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or len(text)
        yield text[start:end].splitlines()
        start = end


def parse_event_log(jsonl_text: str) -> list[HttpEvent]:
    """Parse a JSON Lines event log; blank lines are skipped.

    Lines are split as ``str.splitlines`` splits them. Each goes to the JSON
    scanner directly; one it does not consume whole (a syntax error,
    surrounding whitespace, a byte order mark, trailing data) is read again
    with ``load_json``, which skips it if blank, else accepts it or raises
    the error it always raised. Events share one copy of each distinct
    method and path.
    """
    scan_once = json.JSONDecoder().scan_once
    events: list[HttpEvent] = []
    names: dict[str, str] = {}  # raw service name -> normalized, per distinct name
    shared: dict[str, str] = {}  # one copy of each distinct method and path
    for line_no, line in enumerate(chain.from_iterable(_line_blocks(jsonl_text)), start=1):
        try:
            obj, end = scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            if not line.strip():
                continue
            obj = load_json(line, lambda exc: _malformed(
                line_no, "nested too deeply" if isinstance(exc, RecursionError) else str(exc)))
        if not isinstance(obj, dict):
            raise _malformed(line_no, "expected a JSON object")
        try:  # read in this order, so the first missing field is reported
            ts, raw_src, raw_dst, raw_method, path = (
                obj["ts"], obj["src"], obj["dst"], obj["method"], obj["path"]
            )
        except KeyError as exc:
            raise InputError(f"event log line {line_no}: missing field {exc.args[0]!r}") from None
        # type() and not isinstance(): JSON true/false load as bool, an int subclass
        if type(ts) is not int or ts < 0:
            raise _malformed(line_no, "ts must be a non-negative integer")
        method = str(raw_method).upper()
        if method not in HTTP_METHODS:
            # any JSON value: its repr is what gets cut
            raise _malformed(line_no, f"unknown HTTP method {clip(repr(raw_method))}")
        path = str(path)
        if not path.startswith("/"):
            raise _malformed(line_no, "path must begin with '/'")
        status = obj.get("status")
        if status is not None and type(status) is not int:
            raise _malformed(line_no, "status must be an integer")
        if not isinstance(raw_src, str):
            raise _malformed(line_no, "src must be a string")
        if not isinstance(raw_dst, str):
            raise _malformed(line_no, "dst must be a string")
        src = names.get(raw_src) or names.setdefault(raw_src, normalize_name(raw_src))
        dst = names.get(raw_dst) or names.setdefault(raw_dst, normalize_name(raw_dst))
        if GLOBAL_SCOPE in (src, dst):
            raise _malformed(line_no, f"service name {GLOBAL_SCOPE!r} is reserved")
        method, path = shared.setdefault(method, method), shared.setdefault(path, path)
        # tuple.__new__ skips the Python-level __new__ that NamedTuple generates
        events.append(tuple.__new__(HttpEvent, (ts, src, dst, method, path, status)))
    return events


def _segment(stamps: list[int], symbols: list[str], gap_ms: int) -> list[Trace]:
    """Cut one scope's time-ordered events wherever the idle gap exceeds ``gap_ms``."""
    cuts = [i for i in range(1, len(stamps)) if stamps[i] - stamps[i - 1] > gap_ms]
    bounds = [0, *cuts, len(stamps)]
    ordered = tuple(symbols)  # so each trace is one slice
    return [Trace(ordered[start:end]) for start, end in zip(bounds, bounds[1:])]


def extract_traces(
    events: list[HttpEvent], gap_ms: int, scope: str = "global"
) -> dict[str, list[Trace]]:
    """Sessionize events into traces, keyed by scope.

    ``scope`` is ``"global"`` (one key covering all events), ``"per_service"``
    (one key per service, in sorted order, keeping events where it is src or
    dst), or ``"both"`` (global first). One pass in time order appends each
    event to the streams of the scopes it joins; each distinct call is
    formatted once, when first seen. Precondition: no service is named
    ``GLOBAL_SCOPE`` (``parse_event_log`` rejects that name), or its stream
    and the global one would be one.
    """
    streams: dict[str, tuple[list[int], list[str]]] = {}  # scope key -> stamps, symbols
    calls: dict[tuple[str, str, str, str], tuple] = {}  # call -> its symbol, its streams
    for ev in sorted(events, key=attrgetter("ts")):  # stable: keeps input order on ties
        call = (ev.src, ev.dst, ev.method, ev.path)
        seen = calls.get(call)
        if seen is None:
            keys = [GLOBAL_SCOPE] if scope in ("global", "both") else []
            if scope in ("per_service", "both"):
                keys += {ev.src, ev.dst}  # a self-call joins its service once
            seen = calls[call] = (
                format_symbol(ev.src, ev.dst, ev.method, template_path(ev.path)),
                [streams.setdefault(key, ([], [])) for key in keys],
            )
        symbol, joined = seen
        for stamps, symbols in joined:
            stamps.append(ev.ts)
            symbols.append(symbol)
    return {key: _segment(*streams.pop(key), gap_ms)
            for key in sorted(streams, key=lambda key: (key != GLOBAL_SCOPE, key))}
