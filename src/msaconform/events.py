"""HTTP event log ingestion and trace extraction.

Event log format: JSON Lines, one object per line with fields
``ts`` (int, ms since epoch), ``src`` (str), ``dst`` (str), ``method`` (str),
``path`` (str) and optional ``status`` (int), which is checked but not kept.
A path holds no line break: it would break a finding diagram's line.
The log is read in blocks, from a string cut every 32 KiB or from any
iterable of text pieces such as a file read in chunks: a block is one
piece's whole lines, scanned where they lie in it, or the one line that
spans two pieces, so no more than one block's lines are alive at once and
no piece is copied whole to be scanned. Lines in the exact shape
``json.dumps`` writes an event are read one lax pattern scan per block,
which matches a line by its start and end, with the text between checked
against the exact shape once per distinct call; any other valid line is
read on its own, at the slower per-line speed, with the same result. A
parsed log is
two columns, not an object per event, and a table of calls: the
timestamps, packed as 64-bit integers in an ``array('q')`` (8 bytes each,
not an int object and a pointer), and each event's call as its index in
the table, packed in an ``array('H')`` (2 bytes each) while there are
fewer than 65,536 distinct calls. An event takes 10 bytes.

Events become alphabet symbols of the form ``<src>→<dst>:<METHOD> <path>``
and are cut into bounded traces whenever the idle gap between consecutive
events exceeds a configurable threshold. Equal traces of one log are one
object.
"""

from __future__ import annotations

import json
import re
from array import array
from typing import Iterable, NamedTuple

from .errors import InputError, clip, load_json
from .static_model import normalize_name

HTTP_METHODS = frozenset({"GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS"})

_UUID_RE = re.compile(
    r"^[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}$"
)

ARROW = "→"
# scope key of the trace set over all events; no service may take this name
GLOBAL_SCOPE = "global"


class EventLog:
    """A parsed event log as two columns with one row per event, in line
    order, and a table of its distinct calls: ``stamps[i]`` is event
    ``i``'s ``ts`` and ``table[ids[i]]`` its ``(src, dst, method, path)``.
    ``table`` holds each distinct call once, in the order of its first
    event. The parser gives ``stamps`` as an ``array('q')``, or as a list if
    a stamp does not fit in 64 bits, and ``ids`` as an array of the
    narrowest unsigned type that holds every index of ``table``
    (``unsigned_typecode``)."""

    __slots__ = ("stamps", "ids", "table")

    def __init__(self, stamps: array | list[int], ids: array | list[int],
                 table: list[tuple[str, str, str, str]]):
        self.stamps = stamps
        self.ids = ids
        self.table = table

    def __len__(self) -> int:
        return len(self.stamps)


class Trace(NamedTuple):
    symbols: tuple[str, ...]


def scope_order(scopes: Iterable[str]) -> list[str]:
    """``scopes`` in the order runs give them: ``GLOBAL_SCOPE`` first, then
    the service names sorted."""
    return sorted(scopes, key=lambda key: (key != GLOBAL_SCOPE, key))


def format_symbol(src: str, dst: str, method: str, path: str) -> str:
    return f"{src}{ARROW}{dst}:{method} {path}"


def parse_symbol(symbol: str) -> tuple[str, str, str, str]:
    """Split a symbol back into (src, dst, method, path); raises ValueError,
    also for a path that holds a line break."""
    src, _, rest = symbol.partition(ARROW)
    dst, _, call = rest.partition(":")
    method, _, path = call.partition(" ")
    if not (src and dst and method and path.startswith("/")) or path.splitlines() != [path]:
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


# a log is read in pieces of this many characters: cut from a log given as
# one string, or read from a file in chunks by the CLI. Each piece is
# scanned in place, so the piece, its decoding and its scan are the parse's
# transient memory, which 32 KiB keeps small
_BLOCK_CHARS = 1 << 15


def _blocks(pieces: Iterable[str]):
    """The text of ``pieces``, cut anew into blocks that ``str.splitlines``
    splits into the lines of the whole text, so that only one block's lines
    are alive at once. Each block is given as ``(text, start, end)``, the
    slice ``text[start:end]``: the whole lines that lie in one piece are
    that piece and their span in it, not a copy, and the line that spans
    pieces is a block of its own, joined from its parts.

    Each block but the last ends just after a ``"\\n"``, which always ends a
    line (a ``"\\r\\n"`` pair at its ``"\\n"``); every other separator is one
    character, so no line or separator straddles a cut."""
    parts: list[str] = []  # the text since the last cut
    for piece in pieces:
        end = piece.rfind("\n") + 1
        if not end:
            parts.append(piece)
            continue
        start = 0
        if parts:
            start = piece.find("\n") + 1
            parts.append(piece[:start])
            head = "".join(parts)
            yield head, 0, len(head)
        if start < end:
            yield piece, start, end
        parts = [piece[end:]] if end < len(piece) else []
    rest = "".join(parts)
    if rest:
        yield rest, 0, len(rest)


# a JSON string with no escape, no control character and no line separator
# of str.splitlines: the text between its quotes is its value
_PLAIN = r'"[^"\\\x00-\x1f\x85\u2028\u2029]*"'
_INT = r"(?:0|[1-9][0-9]{0,17})"  # as json.dumps writes an int that int() takes
# a whole line that starts as json.dumps writes an event, in groups: ts, and
# the text after it; the text may hold any character but "\n"
_LINE = re.compile(rf'^\{{"ts": ({_INT}), (.*)\}}$', re.M)
# the text after the ts, as json.dumps writes an event
_CALL = re.compile(rf'"src": {_PLAIN}, "dst": {_PLAIN}, "method": {_PLAIN}, '
                   rf'"path": {_PLAIN}(?:, "status": -?{_INT})?')
_scan_once = json.JSONDecoder().scan_once


def _read_line(line: str, line_no: int, names: dict[str, str],
               shared: dict[str, str]) -> tuple[int, tuple[str, str, str, str]] | None:
    """The ``ts`` and the ``(src, dst, method, path)`` of one line of the log,
    or None if it is blank.

    The line goes to the JSON scanner directly; one it does not consume whole
    (a syntax error, surrounding whitespace, a byte order mark, trailing
    data) is read again with ``load_json``, which skips it if blank, else
    accepts it or raises the error it always raised. ``names`` maps each raw
    service name seen to its normalized form, and ``shared`` holds one copy
    of each distinct method and path."""
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(line):
        if not line.strip():
            return None
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
    if path.splitlines() != [path]:
        raise _malformed(line_no, "path must not hold a line break")
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
    return ts, (src, dst, shared.setdefault(method, method), shared.setdefault(path, path))


def _call_id(call: tuple[str, str, str, str], known: dict,
             table: list[tuple[str, str, str, str]]) -> int:
    """The index of ``call`` in ``table``, which ``known`` maps each call in
    it to; a call not in it is added at the end."""
    ident = known.setdefault(call, len(table))
    if ident == len(table):
        table.append(call)
    return ident


def _read_calls(stamps: tuple[str, ...], texts: tuple[str, ...], line_no: int,
                known: dict, table: list, names: dict[str, str], shared: dict[str, str]) -> bool:
    """Whether each text of one block's lines that ``known`` lacks, a line's
    text after its ``ts``, has the exact shape ``json.dumps`` writes. In line
    order, each such text is checked and then read by ``_read_line`` at its
    first line, and ``known`` maps it to its call's index in ``table``, up
    to the first that fails the check; line ``line_no + i + 1`` has
    ``stamps[i]`` and ``texts[i]``."""
    unseen = set(texts).difference(known)
    for i, text in enumerate(texts):
        if not unseen:
            break
        if text in unseen:
            if not _CALL.fullmatch(text):
                return False
            line = '{"ts": ' + stamps[i] + ", " + text + "}"
            call = _read_line(line, line_no + i + 1, names, shared)[1]
            known[text] = _call_id(call, known, table)
            unseen.remove(text)
    return True


def _extend_stamps(stamps: array | list[int], block: list[int]) -> array | list[int]:
    """``stamps`` with the stamps of ``block`` added, all or none: an
    ``array('q')`` while every stamp fits in 64 bits, from the first that
    does not a list."""
    if type(stamps) is array:
        try:
            stamps.fromlist(block)  # leaves the array as it was if it raises
            return stamps
        except OverflowError:
            stamps = stamps.tolist()
    stamps.extend(block)
    return stamps


def unsigned_typecode(n: int) -> str:
    """The typecode of the narrowest unsigned ``array`` whose items hold
    every integer from 0 to ``n``."""
    return next(code for code in "HIQ" if n < 1 << 8 * array(code).itemsize)


def parse_event_log(log: str | Iterable[str]) -> EventLog:
    """Parse a JSON Lines event log, given whole or as an iterable of text
    pieces cut anywhere, such as a file read in chunks; blank lines are
    skipped.

    Lines are split as ``str.splitlines`` splits the whole text, one block
    of ``_blocks`` at a time. A block whose lines all have the exact shape
    ``json.dumps`` gives an event is read by one pattern scan. The scan is
    lax: it matches each line split at ``"\n"`` that starts with a ``ts``
    and ends with ``}``, whatever the text between. Each distinct text, the
    call, is then checked against the exact shape the first time it is
    seen, and read with ``_read_line`` at its first line: the pattern admits
    only a ``ts`` the check accepts, and no other check reads it, so the
    result holds for every line with that call. The check is exact where
    the scan is not. Where the exact pattern matches a line, the lax one
    matches it with the same groups, for ``.*`` runs to the line's last
    ``}``. The text may hold every other separator of ``str.splitlines``,
    which the check refuses, so the count of matches is trusted only once
    every text has passed it. A block with a line the scan misses, or a
    text the check refuses, is read line by line. Both ways check a line
    with ``_read_line``, so a log gives the same events, or the same error
    at the same line, either way. Both give each distinct call one tuple, in
    the table, and its index to each of its events, and calls share one
    copy of each distinct method and path. Both add a block's stamps and
    ids to the columns at once. The pattern admits no stamp past 64 bits,
    and the first such stamp a line gives turns the ``array('q')`` into a
    list; the id column is widened, all at once, before a block adds an id
    that would not fit.
    """
    pieces = log
    if isinstance(log, str):
        pieces = (log[i:i + _BLOCK_CHARS] for i in range(0, len(log), _BLOCK_CHARS))
    stamps: array | list[int] = array("q")
    ids = array(unsigned_typecode(0))  # the index in table of each event's call
    table: list[tuple[str, str, str, str]] = []  # each distinct call, in first-seen order
    names: dict[str, str] = {}  # raw service name -> normalized, per distinct name
    shared: dict[str, str] = {}  # one copy of each distinct method and path
    # each distinct call, keyed by its line's text after the ts and by itself: its index in table
    known: dict[str | tuple[str, str, str, str], int] = {}
    line_no = 0  # of the line last read
    for text, start, end in _blocks(pieces):
        # the first line is tried alone, so that a log in another shape costs no scan
        matches = _LINE.findall(text, start, end) if _LINE.match(text, start, end) else ()
        # a match holds no "\n", so as many as there are lines split at "\n" means
        # each matched; they are the lines of str.splitlines once each text is checked
        columns = ()
        if len(matches) == text.count("\n", start, end) + (not text.endswith("\n", start, end)):
            columns = tuple(zip(*matches))  # the stamps' digits, the texts after them
            if not _read_calls(*columns, line_no, known, table, names, shared):
                columns = ()
        if columns:
            block_stamps = list(map(int, columns[0]))
            block_ids = list(map(known.__getitem__, columns[1]))
            line_no += len(matches)
        else:
            block_stamps, block_ids = [], []
            for line in text[start:end].splitlines():
                line_no += 1
                event = _read_line(line, line_no, names, shared)
                if event is not None:
                    block_stamps.append(event[0])
                    block_ids.append(_call_id(event[1], known, table))
        stamps = _extend_stamps(stamps, block_stamps)
        code = unsigned_typecode(len(table) - 1)
        if code != ids.typecode:
            ids = array(code, ids)
        ids.fromlist(block_ids)
    return EventLog(stamps, ids, table)


def extract_traces(log: EventLog, gap_ms: int, scope: str = "global") -> dict[str, list[Trace]]:
    """Sessionize a log's events into traces, keyed by scope.

    ``scope`` is ``"global"`` (one key covering all events), ``"per_service"``
    (one key per service, in sorted order, keeping events where it is src or
    dst), or ``"both"`` (global first). One pass in time order appends each
    event to the open session of each scope it joins, first closing that
    session if the idle gap exceeds ``gap_ms``. The pass walks the two
    columns side by side, and stops at the first stamp that decreases; the
    pass is then made anew over a stable sort of the rows by stamp. Each
    distinct call is formatted once, when its index is first seen, and
    looked up by that index after; equal sessions are one ``Trace``
    object. Precondition: no service is named ``GLOBAL_SCOPE``
    (``parse_event_log`` rejects that name), or its sessions and the
    global ones would be one.
    """
    stamps, ids = log.stamps, log.ids
    out = _sessions(zip(stamps, ids), log.table, gap_ms, scope)
    if out is None:
        order = sorted(range(len(stamps)), key=stamps.__getitem__)  # stable: keeps ties' order
        out = _sessions(zip(map(stamps.__getitem__, order), map(ids.__getitem__, order)),
                        log.table, gap_ms, scope)
    return out


def _sessions(events: Iterable[tuple[int, int]], table: list[tuple[str, str, str, str]],
              gap_ms: int, scope: str) -> dict[str, list[Trace]] | None:
    """``extract_traces`` over ``events``, each a stamp and its call's index
    in ``table``, or None at the first stamp that is less than the one
    before it."""
    distinct: dict[tuple[str, ...], Trace] = {}  # each session's symbols: its one Trace

    def close(symbols: list[str]) -> Trace:
        key = tuple(symbols)
        trace = distinct.get(key)
        if trace is None:
            # tuple.__new__ skips the Python-level __new__ that NamedTuple generates
            trace = distinct[key] = tuple.__new__(Trace, (key,))
        return trace

    # scope key -> [its last event's stamp, its open session's symbols, its closed sessions]
    scopes: dict[str, list] = {}
    known: list[tuple | None] = [None] * len(table)  # by call index: its symbol, its scopes
    last = float("-inf")  # the stamp before
    for ts, ident in events:
        if ts < last:
            return None
        last = ts
        seen = known[ident]
        if seen is None:
            src, dst, method, path = table[ident]
            keys = [GLOBAL_SCOPE] if scope in ("global", "both") else []
            if scope in ("per_service", "both"):
                keys += {src, dst}  # a self-call joins its service once
            seen = known[ident] = (format_symbol(src, dst, method, template_path(path)),
                                   [scopes.setdefault(key, [ts, [], []]) for key in keys])
        symbol, joined = seen
        for state in joined:
            if ts - state[0] > gap_ms:
                state[2].append(close(state[1]))
                state[1].clear()
            state[0] = ts
            state[1].append(symbol)
    out = {}
    for key in scope_order(scopes):
        _last, session, traces = scopes[key]
        traces.append(close(session))
        out[key] = traces
    return out
