"""Byte-level round trips through the store under every scheme, plus
eviction/crash recovery via under-store and lineage (Sec. 8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    BlockNotFound,
    FileLostError,
    FileMeta,
    Master,
    MissingReplicasError,
    StoreClient,
    Worker,
)


def make_store(n_workers=12, capacity=float("inf"), seed=0):
    master = Master(n_workers, seed=seed)
    workers = [Worker(i, capacity=capacity) for i in range(n_workers)]
    return StoreClient(master, workers, seed=seed)


def random_bytes(n, seed=0):
    return bytes(np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8))


@given(st.binary(min_size=0, max_size=5000), st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_partitioned_roundtrip(data, k):
    client = make_store()
    client.write(1, data, k=k)
    assert client.read(1) == data


@given(st.binary(min_size=1, max_size=3000))
@settings(max_examples=30, deadline=None)
def test_ec_roundtrip(data):
    client = make_store()
    client.write_ec(1, data, k=5, n=8)
    assert client.read(1) == data


@given(st.binary(min_size=0, max_size=3000), st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_replicated_roundtrip(data, replicas):
    client = make_store()
    client.write_replicated(1, data, replicas=replicas)
    assert client.read(1) == data


def test_replicated_read_without_groups_raises_typed_error():
    """A typed error naming the file, not an ``assert`` that ``-O`` strips."""
    client = make_store()
    with pytest.raises(MissingReplicasError, match="file 7") as info:
        client._read_replicated(FileMeta(file_id=7, size=10))
    assert isinstance(info.value, ValueError)
    assert info.value.file_id == 7


def test_partitions_on_distinct_workers():
    client = make_store()
    meta = client.write(1, random_bytes(1000), k=7)
    assert len({loc.worker_id for loc in meta.locations}) == 7


def test_reads_update_popularity():
    client = make_store()
    client.write(1, b"x" * 100, k=2)
    for _ in range(5):
        client.read(1)
    assert client.master.meta(1).access_count == 5


def test_ec_survives_parity_worker_loss():
    client = make_store()
    data = random_bytes(2000, seed=1)
    meta = client.write_ec(1, data, k=4, n=7)
    # Kill three of the workers holding shards: 4 survive, enough.
    for loc in meta.locations[:3]:
        client.workers[loc.worker_id].delete_block(1, loc.index)
    assert client.read(1) == data
    assert client.recoveries == 0  # decoded, not recovered


def test_replication_survives_replica_loss():
    client = make_store()
    data = random_bytes(500, seed=2)
    meta = client.write_replicated(1, data, replicas=3)
    for group in meta.replica_groups[:2]:
        client.workers[group[0].worker_id].delete_block(1, group[0].index)
    assert client.read(1) == data


def test_recovery_from_under_store():
    client = make_store()
    data = random_bytes(800, seed=3)
    client.write(1, data, k=4)
    client.checkpoint(1)
    for w in client.workers:
        w.crash()
    assert client.read(1) == data
    assert client.recoveries == 1
    # Re-cached: the next read hits memory, no new recovery.
    assert client.read(1) == data
    assert client.recoveries == 1


def test_recovery_via_lineage_recompute():
    client = make_store()
    parent = random_bytes(300, seed=4)
    client.write(1, parent, k=2)
    client.checkpoint(1)
    derived = bytes(b ^ 0xFF for b in parent)
    client.write(2, derived, k=3)
    client.lineage.register(
        2, parents=(1,), recompute=lambda ps: bytes(b ^ 0xFF for b in ps[0])
    )
    for w in client.workers:
        w.crash()
    assert client.read(2) == derived
    assert client.recoveries >= 1


def test_unrecoverable_loss_raises():
    client = make_store()
    client.write(1, b"gone", k=2)  # never checkpointed, no lineage
    for w in client.workers:
        w.crash()
    with pytest.raises(KeyError):
        client.read(1)


def _derived_file(client):
    """File 2 derived from the uncheckpointed file 1 by lineage."""
    parent = random_bytes(300, seed=4)
    client.write(1, parent, k=2)
    client.write(2, bytes(b ^ 0xFF for b in parent), k=3)
    client.lineage.register(
        2, parents=(1,), recompute=lambda ps: bytes(b ^ 0xFF for b in ps[0])
    )


def test_lost_parent_falls_through_to_lineage_then_raises_file_lost():
    """A parent whose own read finds nothing left is looked up in lineage
    next; without a record there, the error names the parent."""
    client = make_store()
    _derived_file(client)
    for w in client.workers:
        w.crash()
    with pytest.raises(FileLostError) as info:
        client.read(2)
    assert info.value.file_id == 1
    assert str(info.value) == (
        "file 1 is lost: not persisted and has no lineage"
    )


def test_plain_key_error_in_parent_read_propagates():
    """Recovery swallows only :class:`FileLostError` from a parent read;
    any other ``KeyError`` there is a fault and surfaces."""
    client = make_store()
    _derived_file(client)
    for loc in client.master.meta(2).locations:
        client.workers[loc.worker_id].delete_block(2, loc.index)

    for w in client.workers:
        def get_block(file_id, index, _get=w.get_block):
            if file_id == 1:
                raise KeyError("not a missing block")
            return _get(file_id, index)

        w.get_block = get_block
    with pytest.raises(KeyError, match="not a missing block") as info:
        client.read(2)
    assert not isinstance(info.value, FileLostError)


def test_repartition_preserves_bytes_and_relocates():
    client = make_store()
    data = random_bytes(1200, seed=5)
    client.write(1, data, k=2)
    meta = client.repartition(1, new_k=6)
    assert len(meta.locations) == 6
    assert client.read(1) == data


def test_repartition_rejects_non_partitioned():
    client = make_store()
    client.write_ec(1, b"x" * 100, k=2, n=4)
    with pytest.raises(ValueError):
        client.repartition(1, new_k=3)


def test_eviction_then_understore_fallback():
    """Tiny workers: writing file 2 evicts file 1's blocks; reading file 1
    falls back to the checkpoint."""
    client = make_store(n_workers=4, capacity=150)
    a = random_bytes(400, seed=6)
    b = random_bytes(400, seed=7)
    client.write(1, a, k=4)
    client.checkpoint(1)
    client.write(2, b, k=4)  # evicts most of file 1
    client.checkpoint(2)  # both can't be resident at once on 150 B workers
    assert client.read(1) == a  # recovered from the checkpoint, evicts 2
    assert client.read(2) == b  # and vice versa
    assert client.recoveries >= 2


def test_write_placement_strategies():
    client = make_store()
    client.master.placed_bytes[:] = 0
    client.master.placed_bytes[0] = 1e9  # server 0 heavily loaded
    meta = client.write(1, b"y" * 100, k=3, placement="least_loaded")
    assert 0 not in [loc.worker_id for loc in meta.locations]
    with pytest.raises(ValueError):
        client.write(2, b"z", k=1, placement="bogus")


@pytest.mark.parametrize("scheme", ["partitioned", "ec", "replicated"])
def test_plain_key_error_from_worker_propagates(scheme):
    """Only :class:`BlockNotFound` means "block lost, recover"; any other
    ``KeyError`` out of a worker is a fault and must surface, even for a
    checkpointed file that recovery would silently serve."""
    client = make_store()
    data = random_bytes(600, seed=8)
    if scheme == "partitioned":
        client.write(1, data, k=4)
    elif scheme == "ec":
        client.write_ec(1, data, k=4, n=6)
    else:
        client.write_replicated(1, data, replicas=2)
    client.checkpoint(1)

    def broken_get_block(file_id, index):
        raise KeyError("not a missing block")

    for w in client.workers:
        w.get_block = broken_get_block
    with pytest.raises(KeyError, match="not a missing block") as info:
        client.read(1)
    assert not isinstance(info.value, BlockNotFound)
    assert client.recoveries == 0
