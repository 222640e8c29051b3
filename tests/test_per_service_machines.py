"""Under the default ``trace_scope = both``, no output reads the per-service
machines learned from an event log.

Each per-service trace is a subsequence of the same events as a global one,
and merging never drops a transition, so every (caller, callee) pair of a
per-service machine is a pair of the global machine: the dynamic view, the
union of every machine's pairs, is the global machine's. And since the
global machine holds every static finding's subject, ``finding_details``
indexes no other machine for those findings' details.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from msaconform import cli, interpret
from msaconform.detector import NcKind, detect, extract_dynamic_view, extract_static_view
from msaconform.events import GLOBAL_SCOPE, parse_symbol
from msaconform.interpret import CallIndex, finding_details
from msaconform.learner import LearnerConfig
from test_interpret import static_models

SERVICES = ("a", "b", "c", "d")


@st.composite
def event_logs(draw):
    """At least one event, at non-decreasing times whose steps now and then
    exceed the session gap, so that sessions split and repeat."""
    lines, ts = [], 0
    for src, dst, method, path in draw(st.lists(st.tuples(
            st.sampled_from(SERVICES), st.sampled_from(SERVICES), st.sampled_from(("GET", "POST")),
            st.sampled_from(("/x", "/y", "/z/7"))), min_size=1, max_size=40)):
        ts += draw(st.sampled_from((0, 5, 10, 2000)))
        lines.append(json.dumps({"ts": ts, "src": src, "dst": dst, "method": method,
                                 "path": path}))
    return "\n".join(lines) + "\n"


def pairs(machine) -> set[tuple[str, str]]:
    return {parse_symbol(symbol)[:2] for _state, symbol in machine.transitions}


@settings(max_examples=150, deadline=None)
@given(log=event_logs(), model=static_models(), top_n=st.sampled_from((1, 5)))
def test_no_output_reads_a_per_service_machine(log, model, top_n):
    cfg = cli.Config()
    assert cfg.trace_scope == "both"
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "events.jsonl").write_text(log, "utf-8")
        machines, _traces = cli._load_dynamic_models(Path(tmp), cfg, LearnerConfig(),
                                                     evaluate=False)
    events = [json.loads(line) for line in log.splitlines()]
    assert set(machines) == {GLOBAL_SCOPE, *(e["src"] for e in events), *(e["dst"] for e in events)}
    held = pairs(machines[GLOBAL_SCOPE])
    for scope, machine in machines.items():
        assert pairs(machine) <= held, scope

    _tagged, ncs = detect(extract_static_view(model), extract_dynamic_view([*machines.values()]))
    with mock.patch.object(interpret, "CallIndex", wraps=CallIndex) as indexed:
        details = list(finding_details(machines, model, ncs, top_n))
    assert all(call.args[0] is machines[GLOBAL_SCOPE] for call in indexed.call_args_list)
    for nc, nc_details in details:
        if nc.kind is NcKind.Static:
            assert nc_details.frequent_calls
