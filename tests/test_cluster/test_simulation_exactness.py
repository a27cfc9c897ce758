"""The fast FIFO engine is exact: cross-checked against an independent
heap-based M/M/1 simulator and against closed-form queueing theory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import SimulationConfig, simulate_reads
from repro.cluster.client import ReadOp
from repro.cluster.engine import draws
from repro.common import ClusterSpec
from repro.workloads.arrivals import ArrivalTrace

from .event_queue import EventQueue


class _SingleFilePlanner:
    """Every request reads one fixed-size object from server 0."""

    def __init__(self, size: float):
        self.size = size

    def plan_read(self, file_id, rng):
        return ReadOp(
            server_ids=np.array([0]), sizes=np.array([self.size])
        )

    def footprint(self, file_id):
        return self.size


def _mm1_reference(times: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Independent event-driven FIFO queue built on EventQueue."""
    q = EventQueue()
    completions = np.empty(times.size)
    state = {"busy": False, "queue": []}

    def finish(idx: int) -> None:
        completions[idx] = q.now
        if state["queue"]:
            nxt = state["queue"].pop(0)
            q.schedule_after(services[nxt], lambda: finish(nxt))
        else:
            state["busy"] = False

    def arrive(idx: int) -> None:
        if state["busy"]:
            state["queue"].append(idx)
        else:
            state["busy"] = True
            q.schedule_after(services[idx], lambda: finish(idx))

    for j, t in enumerate(times):
        q.schedule(float(t), lambda j=j: arrive(j))
    q.run()
    return completions - times


@pytest.fixture
def fifo_config():
    return SimulationConfig(
        discipline="fifo", jitter="exponential", goodput=None, seed=7
    )


def test_fifo_engine_matches_independent_heap_simulator(fifo_config):
    """Same service-time draws => identical latencies, event by event."""
    rng = np.random.default_rng(1)
    n = 2000
    times = np.cumsum(rng.exponential(0.2, n))
    trace = ArrivalTrace(times, np.zeros(n, dtype=np.int64))
    cluster = ClusterSpec(n_servers=1, bandwidth=1.0)

    size = 0.1  # mean service 0.1 s at bandwidth 1
    result = simulate_reads(
        trace, _SingleFilePlanner(size), cluster, fifo_config
    )
    # Reproduce the exact service draws the engine used: request j's
    # jitter is keyed (seed 7, JITTER, j, slot 0).
    services = size * draws.exponential(
        draws.uniforms(7, draws.JITTER, np.arange(n), 0)
    )
    expected = _mm1_reference(times, services)
    assert np.allclose(result.latencies, expected)


def test_mm1_mean_sojourn_matches_theory():
    """M/M/1: E[T] = 1 / (mu - lambda)."""
    lam, mu = 5.0, 8.0
    n = 120_000
    rng = np.random.default_rng(2)
    times = np.cumsum(rng.exponential(1 / lam, n))
    trace = ArrivalTrace(times, np.zeros(n, dtype=np.int64))
    cluster = ClusterSpec(n_servers=1, bandwidth=mu)  # size 1 => rate mu
    config = SimulationConfig(
        discipline="fifo", jitter="exponential", goodput=None, seed=3
    )
    result = simulate_reads(trace, _SingleFilePlanner(1.0), cluster, config)
    measured = result.steady_state_latencies().mean()
    assert measured == pytest.approx(1 / (mu - lam), rel=0.05)


def test_md1_mean_wait_matches_pollaczek_khinchine():
    """M/D/1: W = rho / (2 (1 - rho)) * s; sojourn = W + s."""
    lam, s = 4.0, 0.15
    rho = lam * s
    n = 120_000
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.exponential(1 / lam, n))
    trace = ArrivalTrace(times, np.zeros(n, dtype=np.int64))
    cluster = ClusterSpec(n_servers=1, bandwidth=1.0)
    config = SimulationConfig(
        discipline="fifo", jitter="deterministic", goodput=None, seed=4
    )
    result = simulate_reads(trace, _SingleFilePlanner(s), cluster, config)
    expected = s + rho / (2 * (1 - rho)) * s
    assert result.steady_state_latencies().mean() == pytest.approx(
        expected, rel=0.05
    )


def test_ps_engine_matches_ps_theory_mean():
    """M/M/1-PS has the same mean sojourn as M/M/1-FIFO: 1/(mu - lambda)."""
    lam, mu = 5.0, 8.0
    n = 120_000
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.exponential(1 / lam, n))
    trace = ArrivalTrace(times, np.zeros(n, dtype=np.int64))
    # client_bandwidth huge so only the server NIC matters.
    cluster = ClusterSpec(n_servers=1, bandwidth=mu, client_bandwidth=1e12)
    config = SimulationConfig(
        discipline="ps", jitter="exponential", goodput=None, seed=6
    )
    result = simulate_reads(trace, _SingleFilePlanner(1.0), cluster, config)
    assert result.steady_state_latencies().mean() == pytest.approx(
        1 / (mu - lam), rel=0.05
    )


def test_ps_single_flow_transfer_time_is_size_over_bandwidth():
    trace = ArrivalTrace(np.array([0.0]), np.array([0]))
    cluster = ClusterSpec(n_servers=1, bandwidth=10.0, client_bandwidth=1e12)
    config = SimulationConfig(
        discipline="ps", jitter="deterministic", goodput=None, seed=0
    )
    result = simulate_reads(trace, _SingleFilePlanner(5.0), cluster, config)
    assert result.latencies[0] == pytest.approx(0.5)


def test_ps_two_concurrent_flows_share_bandwidth():
    """Two simultaneous unit reads on a rate-1 server: PS finishes both at
    t=2 (each gets 1/2), while FIFO finishes them at 1 and 2."""
    trace = ArrivalTrace(np.array([0.0, 0.0]), np.array([0, 0]))
    cluster = ClusterSpec(n_servers=1, bandwidth=1.0, client_bandwidth=1e12)
    base = dict(jitter="deterministic", goodput=None, seed=0)
    ps = simulate_reads(
        trace,
        _SingleFilePlanner(1.0),
        cluster,
        SimulationConfig(discipline="ps", **base),
    )
    assert np.allclose(np.sort(ps.latencies), [2.0, 2.0])
    fifo = simulate_reads(
        trace,
        _SingleFilePlanner(1.0),
        cluster,
        SimulationConfig(discipline="fifo", **base),
    )
    assert np.allclose(np.sort(fifo.latencies), [1.0, 2.0])


def test_ps_client_cap_limits_parallel_read():
    """A 2-way parallel read against idle servers is limited by the client
    NIC: 2 partitions x 1 byte at client bandwidth 1 => 2 s, not 1 s."""

    class TwoWay:
        def plan_read(self, file_id, rng):
            return ReadOp(
                server_ids=np.array([0, 1]), sizes=np.array([1.0, 1.0])
            )

        def footprint(self, file_id):
            return 2.0

    trace = ArrivalTrace(np.array([0.0]), np.array([0]))
    cluster = ClusterSpec(n_servers=2, bandwidth=100.0, client_bandwidth=1.0)
    config = SimulationConfig(
        discipline="ps", jitter="deterministic", goodput=None, seed=0
    )
    result = simulate_reads(trace, TwoWay(), cluster, config)
    assert result.latencies[0] == pytest.approx(2.0)
