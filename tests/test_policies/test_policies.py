"""Policy layouts, read plans, write plans, and memory accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.engine.draws import PLAN, uniforms
from repro.common import MB, ClusterSpec, Gbps
from repro.policies import (
    ECCachePolicy,
    FixedChunkingPolicy,
    SelectiveReplicationPolicy,
    SimplePartitionPolicy,
    SingleCopyPolicy,
    SPCachePolicy,
)
from repro.workloads import paper_fileset

CLUSTER = ClusterSpec(n_servers=20, bandwidth=Gbps)
POP = paper_fileset(60, size_mb=50, zipf_exponent=1.1, total_rate=8.0)


def _u(policy, request=0, seed=0):
    """Request ``request``'s plan uniforms, as the simulator passes them."""
    return uniforms(seed, PLAN, request, np.arange(policy.plan_slots))


def all_policies():
    return [
        SPCachePolicy(POP, CLUSTER, seed=1),
        ECCachePolicy(POP, CLUSTER, k=4, n=6, seed=1),
        SelectiveReplicationPolicy(POP, CLUSTER, seed=1),
        SimplePartitionPolicy(POP, CLUSTER, k=5, seed=1),
        FixedChunkingPolicy(POP, CLUSTER, chunk_size=8 * MB, seed=1),
        SingleCopyPolicy(POP, CLUSTER, seed=1),
    ]


@pytest.mark.parametrize("policy", all_policies(), ids=lambda p: p.name)
class TestCommonInvariants:
    def test_layout_covers_population(self, policy):
        assert len(policy.servers_of) == POP.n_files
        assert len(policy.piece_sizes) == POP.n_files

    def test_pieces_on_distinct_servers(self, policy):
        for servers in policy.servers_of:
            assert np.unique(servers).size == servers.size

    def test_read_plan_within_layout(self, policy):
        for fid in (0, 5, POP.n_files - 1):
            op = policy.plan_read(fid, _u(policy, fid, seed=2))
            assert set(op.server_ids).issubset(set(policy.servers_of[fid]))
            assert op.join_count <= op.parallelism

    def test_footprint_matches_piece_sizes(self, policy):
        for fid in (0, POP.n_files - 1):
            assert policy.footprint(fid) == pytest.approx(
                policy.piece_sizes[fid].sum()
            )

    def test_write_plan_positive(self, policy):
        op = policy.plan_write(0)
        assert op.total_bytes >= POP.sizes[0] - 1e-6


class TestSPCache:
    def test_partition_counts_proportional_to_load(self):
        policy = SPCachePolicy(POP, CLUSTER, alpha=1.0 / (10 * MB), seed=1)
        ks = policy.partition_counts()
        order = np.argsort(-POP.loads)
        assert np.all(np.diff(ks[order]) <= 0)

    def test_no_redundancy(self):
        policy = SPCachePolicy(POP, CLUSTER, seed=1)
        assert policy.memory_overhead() == pytest.approx(0.0, abs=1e-9)
        assert policy.total_cached_bytes() == pytest.approx(POP.total_bytes)

    def test_reads_fetch_everything(self):
        policy = SPCachePolicy(POP, CLUSTER, seed=1)
        op = policy.plan_read(0, _u(policy))
        assert op.join_count == op.parallelism
        assert op.post_fraction == 0.0  # no decode

    def test_explicit_alpha_used(self):
        policy = SPCachePolicy(POP, CLUSTER, alpha=3e-7, seed=1)
        assert policy.alpha == 3e-7

    def test_max_partitions_cap(self):
        policy = SPCachePolicy(POP, CLUSTER, max_partitions=4, seed=1)
        assert policy.partition_counts().max() <= 4

    def test_repartition_builds_new_policy(self):
        policy = SPCachePolicy(POP, CLUSTER, alpha=2e-7, seed=1)
        shifted = POP.with_popularities(POP.popularities[::-1].copy())
        new = policy.repartition(shifted)
        assert new.population is shifted
        assert new.alpha == policy.alpha


class TestECCache:
    def test_memory_overhead_40pct(self):
        policy = ECCachePolicy(POP, CLUSTER, k=10, n=14, seed=1)
        assert policy.memory_overhead() == pytest.approx(0.4)

    def test_late_binding_reads_k_plus_one_joins_k(self):
        policy = ECCachePolicy(POP, CLUSTER, k=4, n=6, seed=1)
        op = policy.plan_read(0, _u(policy, seed=3))
        assert op.parallelism == 5
        assert op.join_count == 4
        assert op.post_fraction == 0.2

    def test_late_binding_off(self):
        policy = ECCachePolicy(
            POP, CLUSTER, k=4, n=6, late_binding=False, seed=1
        )
        op = policy.plan_read(0, _u(policy, seed=3))
        assert op.parallelism == 4

    def test_write_includes_encode_time(self):
        policy = ECCachePolicy(POP, CLUSTER, k=4, n=6, seed=1)
        op = policy.plan_write(0)
        assert op.pre_seconds > 0
        assert op.total_bytes == pytest.approx(POP.sizes[0] * 6 / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ECCachePolicy(POP, CLUSTER, k=0, n=4)
        with pytest.raises(ValueError):
            ECCachePolicy(POP, CLUSTER, k=4, n=30)  # n > servers? 30 > 20
        with pytest.raises(ValueError):
            ECCachePolicy(POP, CLUSTER, k=4, n=6, decode_overhead=-0.1)


class TestSelectiveReplication:
    def test_top_files_replicated(self):
        policy = SelectiveReplicationPolicy(
            POP, CLUSTER, top_fraction=0.1, replicas=4, seed=1
        )
        counts = policy.replica_counts
        hot = np.argsort(-POP.popularities)[:6]
        assert np.all(counts[hot] == 4)
        assert counts.sum() == 60 - 6 + 24

    def test_read_is_single_whole_file(self):
        policy = SelectiveReplicationPolicy(POP, CLUSTER, seed=1)
        op = policy.plan_read(0, _u(policy, seed=1))
        assert op.parallelism == 1
        assert op.sizes[0] == POP.sizes[0]

    def test_reads_spread_over_replicas(self):
        policy = SelectiveReplicationPolicy(POP, CLUSTER, seed=1)
        servers = {
            int(policy.plan_read(0, _u(policy, j, seed=5)).server_ids[0])
            for j in range(200)
        }
        assert len(servers) == 4  # the hottest file has 4 replicas

    def test_explicit_counts(self):
        counts = np.ones(POP.n_files, dtype=np.int64)
        counts[0] = 3
        policy = SelectiveReplicationPolicy(
            POP, CLUSTER, replica_counts=counts, seed=1
        )
        assert policy.servers_of[0].size == 3
        with pytest.raises(ValueError):
            SelectiveReplicationPolicy(
                POP, CLUSTER, replica_counts=counts[:-1], seed=1
            )


class TestFixedChunking:
    def test_counts_follow_size(self):
        policy = FixedChunkingPolicy(POP, CLUSTER, chunk_size=8 * MB, seed=1)
        expected = int(np.ceil(50 / 8))
        assert np.all(policy.partition_counts() == expected)

    def test_clamped_to_cluster(self):
        policy = FixedChunkingPolicy(POP, CLUSTER, chunk_size=1 * MB, seed=1)
        assert policy.partition_counts().max() == CLUSTER.n_servers

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedChunkingPolicy(POP, CLUSTER, chunk_size=0)


class TestSimplePartitionAndSingleCopy:
    def test_uniform_k(self):
        policy = SimplePartitionPolicy(POP, CLUSTER, k=7, seed=1)
        assert np.all(policy.partition_counts() == 7)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            SimplePartitionPolicy(POP, CLUSTER, k=0)
        with pytest.raises(ValueError):
            SimplePartitionPolicy(POP, CLUSTER, k=21)

    def test_single_copy(self):
        policy = SingleCopyPolicy(POP, CLUSTER, seed=1)
        assert np.all(policy.partition_counts() == 1)
        assert policy.memory_overhead() == pytest.approx(0.0, abs=1e-9)
