"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces each wrapped function by a timing wrapper in every
loaded ``msaconform`` module that holds it, the defining module and every
``from .x import f`` binding alike, and puts the originals back when the
run ends. The program's code is not edited. A wrapped function that no
longer exists, or that a later change routes around, fires no span; the
coverage list then names it, so the change shows up as missing data
rather than as a speed-up.

Spans are kept in memory: name, start, end and the id of the enclosing
span. Counters that need the call's arguments or result keep a reference
and are computed after the run, outside every span.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

# span name -> (defining module, function name)
WRAPPED = {
    "static_model.parse": ("msaconform.static_model", "parse_static_model"),
    "events.parse": ("msaconform.events", "parse_event_log"),
    "events.sessionize": ("msaconform.events", "extract_traces"),
    "learner.learn": ("msaconform.learner", "learn"),
    "automaton.parse_dot": ("msaconform.automaton", "parse_state_machine"),
    "automaton.accepts": ("msaconform.automaton", "accepts"),
    "detector.static_view": ("msaconform.detector", "extract_static_view"),
    "detector.dynamic_view": ("msaconform.detector", "extract_dynamic_view"),
    "detector.detect": ("msaconform.detector", "detect"),
    "interpret.static_details": ("msaconform.interpret", "static_nc_details"),
    "interpret.dynamic_details": ("msaconform.interpret", "dynamic_nc_details"),
    "report.render": ("msaconform.report", "render_bundle"),
    "evaluator.evaluate": ("msaconform.evaluator", "evaluate"),
    "evaluator.mutate": ("msaconform.evaluator", "mutate_trace"),
}
ROOT_SPAN = "cli.run"
LAYERS = ("static_model", "events", "learner", "automaton", "detector",
          "interpret", "report", "evaluator", "cli")
# spans whose arguments or result feed a counter
_KEEP_CALL = {"events.parse", "events.sessionize", "learner.learn",
              "automaton.parse_dot", "detector.detect", "interpret.static_details"}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    call: tuple | None = None  # (args, kwargs, result) for _KEEP_CALL spans
    children: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records the spans of one run at a time; see :meth:`trace`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.not_found: list[str] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].children += span.duration

    def _wrap(self, name: str, fn):
        keep = name in _KEEP_CALL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep:
                span.call = (args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def trace(self):
        """Patch the wrapped functions and open the root span for one run."""
        self.spans, self._stack, self.not_found = [], [], []
        patched = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "msaconform" or n.startswith("msaconform."))]
        for name, (mod_name, attr) in WRAPPED.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.not_found.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        root = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(root)
            for mod, key, original in patched:
                setattr(mod, key, original)


def _pta_states(traces) -> int:
    """States of the prefix tree acceptor of ``traces``: distinct prefixes plus the root."""
    root: dict = {}
    n = 1
    for trace in traces:
        node = root
        for symbol in getattr(trace, "symbols", trace):
            nxt = node.get(symbol)
            if nxt is None:
                nxt = node[symbol] = {}
                n += 1
            node = nxt
    return n


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one traced run (files are counted by the caller)."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def calls(name: str) -> list[tuple]:
        return [s.call for s in by_name.get(name, ()) if s.call is not None]

    def under(span: Span, ancestor: str) -> bool:
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == ancestor:
                return True
        return False

    def first_arg(call: tuple, keyword: str):
        args, kwargs, _result = call
        return args[0] if args else kwargs[keyword]

    learns = calls("learner.learn")
    pta = sum(_pta_states(first_arg(call, "traces")) for call in learns)
    learned = sum(len(res.states) for _a, _kw, res in learns)
    eval_learns = [s for s in by_name.get("learner.learn", ()) if under(s, "evaluator.evaluate")]
    sessions = calls("events.sessionize")
    findings = calls("detector.detect")
    metrics = {
        "static_model.parse_s": total("static_model.parse"),
        "events.parse_s": total("events.parse"),
        "events.sessionize_s": total("events.sessionize"),
        "events.parse_calls": len(by_name.get("events.parse", ())),
        "events.events": max((len(res) for _a, _kw, res in calls("events.parse")), default=0),
        "events.traces": max((sum(map(len, res.values())) for _a, _kw, res in sessions),
                             default=0),
        "events.alphabet": len({sym for _a, _kw, res in sessions for traces in res.values()
                                for t in traces for sym in t.symbols}),
        "learner.learn_s": total("learner.learn"),
        "learner.learn_calls": len(by_name.get("learner.learn", ())),
        "learner.pta_states": pta,
        "learner.learned_states": learned,
        "learner.compression": learned / pta if pta else 0.0,
        "evaluator.evaluate_s": total("evaluator.evaluate"),
        "evaluator.learn_s": sum(s.duration for s in eval_learns),
        "evaluator.mutate_s": total("evaluator.mutate"),
        "evaluator.folds": len(eval_learns),
        "automaton.parse_dot_s": total("automaton.parse_dot"),
        "automaton.dot_bytes": sum(len(first_arg(call, "dot_text").encode("utf-8"))
                                   for call in calls("automaton.parse_dot")),
        "automaton.accepts_s": total("automaton.accepts"),
        "automaton.accepts_calls": len(by_name.get("automaton.accepts", ())),
        "detector.detect_s": total("detector.static_view", "detector.dynamic_view",
                                   "detector.detect"),
        "detector.findings": sum(len(res[1]) for _a, _kw, res in findings),
        "interpret.static_details_s": total("interpret.static_details"),
        "interpret.dynamic_details_s": total("interpret.dynamic_details"),
        "interpret.submachine_states": sum(
            len(res.submachine.states) for _a, _kw, res in calls("interpret.static_details")
            if res.submachine is not None),
        "report.render_s": total("report.render"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(s.self_time for s in spans if s.layer == layer)
    return metrics


def span_records(spans: list[Span]) -> list[dict[str, Any]]:
    """JSON-ready spans, times relative to the root span's start."""
    t0 = spans[0].start if spans else 0.0
    return [{"id": s.id, "name": s.name, "parent": s.parent,
             "start": round(s.start - t0, 7), "end": round(s.end - t0, 7)} for s in spans]
