"""Trace round-trip: write events → replay → in-process numbers, exactly.

This pins the ISSUE's acceptance criterion: a traced run's JSONL is
sufficient to reconstruct each scheme's per-server load vector, and the
imbalance factor computed from the replayed loads equals the one computed
in-process from ``SimulationResult.server_bytes``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import SimulationConfig, imbalance_factor, simulate_reads
from repro.obs import (
    FileSink,
    RingBufferSink,
    Tracer,
    event_counts,
    latency_samples,
    load_timeline,
    per_server_loads,
    trace_summary,
)
from repro.policies import ECCachePolicy, SPCachePolicy
from repro.workloads import poisson_trace


@pytest.fixture
def workload(small_population, paper_cluster):
    trace = poisson_trace(small_population, n_requests=400, seed=3)
    policies = [
        SPCachePolicy(small_population, paper_cluster, seed=0),
        ECCachePolicy(small_population, paper_cluster, seed=0),
    ]
    return trace, policies, paper_cluster


def run_traced(trace, policies, cluster, sink, discipline):
    results = {}
    for policy in policies:
        config = SimulationConfig(
            discipline=discipline,
            jitter="deterministic",
            seed=2,
            tracer=Tracer(sink),
        )
        results[policy.name] = simulate_reads(trace, policy, cluster, config)
    return results


@pytest.mark.parametrize("discipline", ["fifo", "ps"])
def test_replayed_loads_match_in_process(workload, discipline):
    trace, policies, cluster = workload
    sink = RingBufferSink(capacity=100_000)
    results = run_traced(trace, policies, cluster, sink, discipline)

    loads = per_server_loads(sink)
    assert set(loads) == set(results)
    for scheme, result in results.items():
        assert loads[scheme].shape == result.server_bytes.shape
        np.testing.assert_allclose(loads[scheme], result.server_bytes)


@pytest.mark.parametrize("discipline", ["fifo", "ps"])
def test_replayed_eta_matches_imbalance_factor(workload, discipline):
    trace, policies, cluster = workload
    sink = RingBufferSink(capacity=100_000)
    results = run_traced(trace, policies, cluster, sink, discipline)

    rows = {row["scheme"]: row for row in trace_summary(sink)}
    for scheme, result in results.items():
        expected = imbalance_factor(result.server_bytes)
        assert rows[scheme]["eta"] == pytest.approx(expected, rel=1e-12)
        assert rows[scheme]["requests"] == result.n_requests
        assert rows[scheme]["bytes_served"] == pytest.approx(
            float(result.server_bytes.sum())
        )


def test_file_and_ring_sinks_replay_identically(workload, tmp_path):
    """JSONL encode/decode must not change the reconstruction."""
    trace, policies, cluster = workload
    ring = RingBufferSink(capacity=100_000)
    run_traced(trace, policies, cluster, ring, "fifo")

    path = tmp_path / "trace.jsonl"
    with FileSink(str(path)) as fsink:
        run_traced(trace, policies, cluster, fsink, "fifo")

    from_ring = per_server_loads(ring)
    from_file = per_server_loads(str(path))
    assert set(from_ring) == set(from_file)
    for scheme in from_ring:
        np.testing.assert_allclose(from_ring[scheme], from_file[scheme])


def test_latency_samples_and_event_counts(workload):
    trace, policies, cluster = workload
    sink = RingBufferSink(capacity=100_000)
    results = run_traced(trace, policies, cluster, sink, "fifo")

    counts = event_counts(sink)
    n_schemes = len(results)
    assert counts["read"] == trace.n_requests * n_schemes
    assert counts["read_done"] == trace.n_requests * n_schemes
    assert counts["simulation_end"] == n_schemes

    lats = latency_samples(sink)
    for scheme, result in results.items():
        assert lats[scheme].size == result.n_requests
        np.testing.assert_allclose(np.sort(lats[scheme]),
                                   np.sort(result.latencies))


def test_load_timeline_buckets_sum_to_total(workload):
    trace, policies, cluster = workload
    sink = RingBufferSink(capacity=100_000)
    results = run_traced(trace, policies, cluster, sink, "fifo")

    timeline = load_timeline(sink, n_buckets=8)
    for scheme, result in results.items():
        edges, loads = timeline[scheme]
        assert edges.shape == (9,)
        assert loads.shape == (8, cluster.n_servers)
        np.testing.assert_allclose(loads.sum(axis=0), result.server_bytes)


def test_trailing_idle_servers_survive_replay(small_population):
    """simulation_end carries n_servers, so a scheme that never touched the
    last servers still reconstructs a full-width load vector (exact eta)."""
    from repro.common import ClusterSpec, Gbps
    from repro.policies import SingleCopyPolicy

    cluster = ClusterSpec(n_servers=37, bandwidth=Gbps)
    policy = SingleCopyPolicy(small_population, cluster, seed=0)
    trace = poisson_trace(small_population, n_requests=50, seed=4)
    sink = RingBufferSink()
    result = simulate_reads(
        trace, policy, cluster,
        SimulationConfig(discipline="fifo", seed=2, tracer=Tracer(sink)),
    )
    (load,) = per_server_loads(sink).values()
    assert load.size == 37
    np.testing.assert_allclose(load, result.server_bytes)


class TestReplayTolerance:
    """Unknown kinds and malformed lines are skipped, never fatal."""

    def test_iter_trace_skips_garbage_lines(self, tmp_path):
        from repro.obs import iter_trace

        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"event": "read", "ts": 0.0}\n'
            "\n"
            "{broken json\n"
            '["a", "list"]\n'
            '{"event": "read_done", "ts": 1.0}\n'
        )
        records = list(iter_trace(path))
        assert [r["event"] for r in records] == ["read", "read_done"]

    def test_unknown_events_counts_unrecognized_kinds(self):
        from repro.obs import (
            KNOWN_EVENTS,
            chrome_trace,
            span_tree,
            unknown_events,
        )

        source = [
            {"event": "read", "ts": 0.0},
            {"event": "future_thing"},
            {"event": "future_thing"},
            {"ts": 3.0},  # no event name at all
            {"event": "span", "name": "x"},
            # The retired flat profiling record of older traces.
            {"event": "profile", "name": "old", "ts": 1.0, "wall_s": 0.5},
        ]
        assert unknown_events(source) == {
            "?": 1, "future_thing": 2, "profile": 1,
        }
        assert "read" in KNOWN_EVENTS and "span" in KNOWN_EVENTS
        assert "profile" not in KNOWN_EVENTS
        assert span_tree(source) == []
        events = chrome_trace(source)["traceEvents"]
        assert [e["name"] for e in events if e["ph"] == "X"] == ["x"]

    def test_replay_ignores_unknown_and_partial_records(self, workload):
        """Foreign records interleaved with a real trace change nothing."""
        from repro.obs import unknown_events

        trace, policies, cluster = workload
        sink = RingBufferSink(capacity=100_000)
        results = run_traced(trace, policies, cluster, sink, "fifo")
        polluted = list(sink.records) + [
            {"event": "future_thing", "ts": 0.5, "servers": [0]},
            {"event": "read"},  # missing ts/servers/sizes
            {"event": "read_done", "scheme": "sp-cache"},  # missing latency
        ]
        loads = per_server_loads(polluted)
        for scheme, result in results.items():
            np.testing.assert_allclose(loads[scheme], result.server_bytes)
        lats = latency_samples(polluted)
        for scheme, result in results.items():
            assert lats[scheme].size == result.n_requests
        assert unknown_events(polluted) == {"future_thing": 1}
