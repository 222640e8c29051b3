"""Scenario generator tests: determinism, feasibility, ground-truth recovery."""

import pytest

from _reference_events import event_calls
from msaconform.detector import detect, extract_dynamic_view, extract_static_view
from msaconform.errors import InputError
from msaconform.events import extract_traces, parse_event_log
from msaconform.learner import LearnerConfig, learn
from msaconform.scenario import ScenarioSpec, generate
from msaconform.static_model import parse_static_model, serialize_static_model


def run_pipeline(model, log_text, gap_ms=1000):
    events = parse_event_log(log_text)
    traces = extract_traces(events, gap_ms, scope="both")
    machines = [learn(v, LearnerConfig(), name=k) for k, v in traces.items()]
    return detect(extract_static_view(model), extract_dynamic_view(machines))


class TestSpecValidation:
    @pytest.mark.parametrize("fields", [{"n_services": 0, "n_edges": 0},
                                        {"n_services": 3, "n_edges": 3, "n_events": 0}])
    def test_sizes_must_be_positive(self, fields):
        with pytest.raises(InputError, match="^n_services and n_events must be positive$"):
            ScenarioSpec(**fields)

    @pytest.mark.parametrize("n_services, n_edges", [(1, 0), (3, 0)])
    def test_too_small_a_graph(self, n_services, n_edges):
        with pytest.raises(InputError, match="^need at least 2 services and 1 edge$"):
            ScenarioSpec(n_services=n_services, n_edges=n_edges)

    def test_too_many_edges(self):
        with pytest.raises(InputError, match="^n_edges exceeds the simple directed graph maximum$"):
            ScenarioSpec(n_services=3, n_edges=7)

    def test_injection_bounded_by_edges(self):
        with pytest.raises(InputError, match="^injected counts must not exceed n_edges$"):
            ScenarioSpec(n_services=4, n_edges=3, n_injected_static_nc=4)

    def test_too_few_edges_for_connectivity(self):
        with pytest.raises(InputError, match="^too few edges for a connected graph$"):
            generate(ScenarioSpec(n_services=5, n_edges=2))

    def test_infeasible_at_construction(self):
        with pytest.raises(InputError, match="too few edges for a connected graph"):
            ScenarioSpec(n_services=5, n_edges=2)

    def test_too_few_events(self):
        with pytest.raises(InputError,
                           match="^n_events must allow every edge to appear at least 3 times$"):
            generate(ScenarioSpec(n_services=3, n_edges=3, n_events=5))

    def test_no_room_for_extra_edges(self):
        with pytest.raises(InputError,
                           match="^not enough free node pairs for the extra static-only edges$"):
            generate(ScenarioSpec(n_services=2, n_edges=2, n_injected_dynamic_nc=1, n_events=10))


class TestGenerate:
    def test_no_faults_means_clean_detection(self):
        spec = ScenarioSpec(n_services=4, n_edges=5, n_events=100, rng_seed=3)
        model, log, truth = generate(spec)
        assert truth.expected == ()
        _tv, ncs = run_pipeline(model, log)
        assert ncs == []

    def test_recovers_ground_truth(self):
        spec = ScenarioSpec(
            n_services=5, n_edges=6, n_injected_static_nc=2,
            n_injected_dynamic_nc=1, n_events=200, rng_seed=7,
        )
        model, log, truth = generate(spec)
        _tv, ncs = run_pipeline(model, log)
        assert tuple(ncs) == truth.expected

    def test_deterministic(self):
        spec = ScenarioSpec(n_services=6, n_edges=8, n_injected_static_nc=1, n_events=150, rng_seed=11)
        a = generate(spec)
        b = generate(spec)
        assert serialize_static_model(a[0]) == serialize_static_model(b[0])
        assert a[1] == b[1]
        assert a[2] == b[2]

    def test_outputs_parse(self):
        spec = ScenarioSpec(n_services=4, n_edges=5, n_events=100, rng_seed=1)
        model, log, _truth = generate(spec)
        assert parse_static_model(serialize_static_model(model)) == model
        events = parse_event_log(log)
        assert len(events) == 100

    def test_every_edge_exercised_at_least_three_times(self):
        spec = ScenarioSpec(n_services=5, n_edges=8, n_injected_static_nc=2, n_events=100, rng_seed=9)
        model, log, _truth = generate(spec)
        events = parse_event_log(log)
        counts = {}
        for src, dst, _method, _path in event_calls(events):
            counts[(src, dst)] = counts.get((src, dst), 0) + 1
        assert all(c >= 3 for c in counts.values())
        # statically omitted edges are exercised too
        static_edges = {(f.sender, f.receiver) for f in model.flows}
        assert len(set(counts) - static_edges) == 2

    def test_session_gaps_below_default(self):
        spec = ScenarioSpec(n_services=3, n_edges=3, n_events=60, rng_seed=5)
        _model, log, _truth = generate(spec)
        traces = extract_traces(parse_event_log(log), 1000, scope="global")["global"]
        assert len(traces) > 1  # sessions actually split
        assert sum(len(t.symbols) for t in traces) == 60

    def test_ground_truth_json(self):
        spec = ScenarioSpec(n_services=4, n_edges=4, n_injected_static_nc=1, n_events=50, rng_seed=2)
        _m, _l, truth = generate(spec)
        assert '"kind": "static"' in truth.to_json()

    def test_from_json(self):
        spec = ScenarioSpec.from_json('{"n_services": 4, "n_edges": 5, "rng_seed": 3}')
        assert spec.n_services == 4 and spec.n_events == 1000

    def test_from_json_missing_keys(self):
        """A missing optional key takes its default; a missing n_services or
        n_edges is an error that names it."""
        spec = ScenarioSpec.from_json('{"n_edges": 5, "n_services": 4}')
        assert spec == ScenarioSpec(4, 5, n_injected_static_nc=0, n_injected_dynamic_nc=0,
                                    n_events=1000, rng_seed=0)
        for text, key in [('{"n_edges": 5}', "n_services"), ('{"n_services": 4}', "n_edges"),
                          ("{}", "n_services")]:
            with pytest.raises(InputError) as err:
                ScenarioSpec.from_json(text)
            assert str(err.value) == f"scenario spec: missing key {key!r}"
