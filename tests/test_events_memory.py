"""Memory of reading and sessionizing a generated ``--scenario`` log, as the
CLI reads it: in chunks from the file. ``tracemalloc`` counts the Python
heap's own allocations, so the figures repeat exactly from run to run."""

import json
import tracemalloc
from array import array

import pytest

from msaconform import cli
from msaconform.events import extract_traces, parse_event_log

N_EVENTS = 50_000


@pytest.fixture(scope="module")
def scenario_log(tmp_path_factory):
    """The event log of a 50-service, 150-edge, 50k-event ``--scenario`` run."""
    root = tmp_path_factory.mktemp("scenario")
    spec = root / "spec.json"
    spec.write_text(json.dumps({"n_services": 50, "n_edges": 150, "n_injected_static_nc": 10,
                                "n_injected_dynamic_nc": 10, "n_events": N_EVENTS,
                                "rng_seed": 1}), "utf-8")
    assert cli.run(["--scenario", str(spec), "--output_path", str(root / "out")]) == 0
    return root / "out" / "dynamic_models" / "events.jsonl"


def test_read_and_sessionize_peak_per_event(scenario_log):
    """Reading the log and sessionizing it peaks under 20 bytes an event (16
    measured): the columns take 10, and the rest is one chunk's scan, the
    table and the sessions. It peaked at 28 when each event had an 8-byte
    stamp and an 8-byte pointer in a list, and each 64 KiB block was
    copied to be scanned."""
    tracemalloc.start()
    try:
        extract_traces(parse_event_log(cli._read_chunks(scenario_log)), 1000, scope="both")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * N_EVENTS


def test_columns_take_10_bytes_an_event(scenario_log):
    """While there are fewer than 65,536 distinct calls, an event is an
    8-byte stamp and a 2-byte index into the table of calls."""
    log = parse_event_log(cli._read_chunks(scenario_log))
    assert len(log) == N_EVENTS and len(log.table) < 1 << 16
    assert type(log.stamps) is type(log.ids) is array
    assert len(log.stamps) * log.stamps.itemsize + len(log.ids) * log.ids.itemsize <= 10 * N_EVENTS
