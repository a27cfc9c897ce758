"""Goodput model, straggler injector, metrics, and read/write ops."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import SimulationConfig
from repro.cluster.client import ReadOp, WriteOp, write_latency
from repro.cluster.engine import RequestLifecycle
from repro.cluster.metrics import (
    coefficient_of_variation,
    imbalance_factor,
    latency_improvement,
    summarize_latencies,
)
from repro.cluster.network import GoodputModel, transfer_time
from repro.cluster.stragglers import StragglerInjector
from repro.common import ClusterSpec, Gbps, Mbps
from repro.policies import SelectiveReplicationPolicy
from repro.workloads import paper_fileset, poisson_trace
from repro.workloads.bing import BingStragglerProfile


class TestGoodputModel:
    def test_single_connection_is_lossless(self):
        assert GoodputModel().factor(1, Gbps) == pytest.approx(1.0)

    def test_calibration_points(self):
        m = GoodputModel()
        assert m.factor(20, Gbps) == pytest.approx(0.80, abs=0.02)
        assert m.factor(100, Gbps) == pytest.approx(0.62, abs=0.02)
        assert m.factor(100, 500 * Mbps) == pytest.approx(0.60, abs=0.02)

    def test_monotone_nonincreasing(self):
        m = GoodputModel()
        ks = np.arange(1, 101)
        factors = m.factor(ks, Gbps)
        assert np.all(np.diff(factors) <= 1e-12)

    def test_lower_bandwidth_loses_more(self):
        m = GoodputModel()
        assert m.factor(50, 500 * Mbps) <= m.factor(50, Gbps)

    def test_clamped_beyond_knots(self):
        m = GoodputModel()
        assert m.factor(100000, Gbps) == pytest.approx(m.factor(100, Gbps))

    def test_identity_model(self):
        m = GoodputModel.identity()
        assert m.factor(100, Gbps) == 1.0

    def test_transfer_time(self):
        assert transfer_time(100.0, 10.0) == pytest.approx(10.0)
        assert transfer_time(100.0, 10.0, 0.5) == pytest.approx(20.0)

    @pytest.mark.parametrize(
        "bandwidth",
        [Gbps, np.array([Gbps, 500 * Mbps, Gbps, 700 * Mbps, 500 * Mbps])],
    )
    @pytest.mark.parametrize("goodput", [GoodputModel(), None])
    def test_lifecycle_goodput_row_matches_scalar_calls(self, bandwidth, goodput):
        """The memoized per-server row is the scalar ``factor`` per server,
        bit for bit, whether or not servers share a bandwidth."""
        cluster = ClusterSpec(n_servers=5, bandwidth=bandwidth)
        pop = paper_fileset(4, size_mb=1)
        lc = RequestLifecycle(
            poisson_trace(pop, n_requests=4, seed=0),
            SelectiveReplicationPolicy(pop, cluster, seed=0),
            cluster,
            SimulationConfig(goodput=goodput),
            "fifo",
        )
        for k in (1, 2, 5, 7, 30, 100):
            row = lc.goodput_row(k)
            want = [
                1.0 if goodput is None else goodput.factor(k, float(b))
                for b in cluster.bandwidths
            ]
            assert row.dtype == np.float64
            assert [x.hex() for x in row.tolist()] == [x.hex() for x in want]
            assert lc.goodput_row(k) is row


class TestStragglerInjector:
    def test_none_is_disabled(self):
        inj = StragglerInjector.none()
        assert not inj.enabled
        assert np.all(inj.multipliers(np.arange(10)) == 1.0)

    def test_presets(self):
        assert StragglerInjector.natural().profile.probability == 0.02
        assert StragglerInjector.injected().profile.probability == 0.05
        intensive = StragglerInjector.intensive()
        assert intensive.mode == "per_server"

    def test_per_read_rate(self):
        inj = StragglerInjector.injected()
        mult = inj.multipliers(np.zeros(100_000, dtype=np.int64), seed=0)
        assert (mult > 1).mean() == pytest.approx(0.05, abs=0.005)

    def test_per_server_only_hits_masked(self):
        inj = StragglerInjector(
            BingStragglerProfile(probability=0.5), mode="per_server"
        )
        mask = np.array([True, False])
        servers = np.array([0, 1] * 1000)
        mult = inj.multipliers(servers, straggler_mask=mask, seed=1)
        assert np.all(mult[1::2] == 1.0)  # server 1 is clean
        assert np.all(mult[0::2] > 1.0)  # server 0 always straggles

    def test_per_server_requires_mask(self):
        inj = StragglerInjector(
            BingStragglerProfile(probability=0.5), mode="per_server"
        )
        with pytest.raises(ValueError):
            inj.multipliers(np.array([0, 1]))

    def test_straggler_servers_probability(self):
        inj = StragglerInjector.intensive()
        masks = [inj.straggler_servers(30, seed=s).sum() for s in range(200)]
        assert 0.5 < np.mean(masks) < 3.5  # E = 1.5


class TestMetrics:
    def test_summary_fields(self):
        lat = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        s = summarize_latencies(lat)
        assert s.mean == pytest.approx(22.0)
        assert s.p50 == pytest.approx(3.0)
        assert s.n == 5
        assert s.row()["p95"] == s.p95

    def test_cv(self):
        assert coefficient_of_variation(np.ones(10)) == 0.0
        sample = np.array([0.0, 2.0])
        assert coefficient_of_variation(sample) == pytest.approx(1.0)

    def test_imbalance_factor(self):
        assert imbalance_factor(np.array([1.0, 1.0])) == 0.0
        assert imbalance_factor(np.array([1.0, 3.0])) == pytest.approx(0.5)
        assert imbalance_factor(np.zeros(3)) == 0.0

    def test_latency_improvement(self):
        assert latency_improvement(2.0, 1.0) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            latency_improvement(0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize_latencies(np.array([]))
        with pytest.raises(ValueError):
            summarize_latencies(np.array([-1.0]))

    def test_summary_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            summarize_latencies(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="finite"):
            summarize_latencies(np.array([1.0, np.inf]))

    def test_cv_imbalance_shared_edge_contract(self):
        """Empty raises, all-zero is 0.0, non-finite raises — for both."""
        for fn in (coefficient_of_variation, imbalance_factor):
            with pytest.raises(ValueError):
                fn(np.array([]))
            assert fn(np.zeros(5)) == 0.0
            with pytest.raises(ValueError, match="finite"):
                fn(np.array([1.0, np.nan]))
            with pytest.raises(ValueError, match="finite"):
                fn(np.array([np.inf, 1.0]))


class TestOps:
    def test_read_op_defaults(self):
        op = ReadOp(server_ids=np.array([0, 1]), sizes=np.array([1.0, 2.0]))
        assert op.join_count == 2
        assert op.parallelism == 2

    def test_read_op_validation(self):
        with pytest.raises(ValueError):
            ReadOp(server_ids=np.array([]), sizes=np.array([]))
        with pytest.raises(ValueError):
            ReadOp(server_ids=np.array([0]), sizes=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ReadOp(
                server_ids=np.array([0, 1]),
                sizes=np.array([1.0, 1.0]),
                join_count=3,
            )
        with pytest.raises(ValueError):
            ReadOp(
                server_ids=np.array([0]),
                sizes=np.array([1.0]),
                post_fraction=-0.5,
            )

    def test_write_op_and_latency(self):
        op = WriteOp(sizes=np.array([50.0, 50.0]), pre_seconds=1.0)
        assert op.total_bytes == 100.0
        assert op.n_connections == 2
        lat = write_latency(op, client_bandwidth=10.0)
        assert lat == pytest.approx(1.0 + 10.0)

    def test_write_latency_goodput_penalty(self):
        op = WriteOp(sizes=np.full(100, 1.0))
        plain = write_latency(op, client_bandwidth=10.0)
        lossy = write_latency(op, 10.0, GoodputModel())
        assert lossy > plain
