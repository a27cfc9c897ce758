"""The byte store's metrics, pinned byte for byte against a golden.

One seeded script drives every instrumented store path — SP-Cache
writes, Zipf reads and Algorithm 1/2 rebalances; EC-Cache writes and
reads on LRU workers that evict and recover; one replicated file — and
swaps the process-wide registry twice on the way (a ``reset_registry()``
and a ``set_registry()``), so instruments that cached a registry, or
resolved a metric once and kept it, land their counts in the wrong place
and the snapshot diverges.

Wall-clock histograms (``*.seconds``) keep only their count: the number
of spans is deterministic, their durations are not.

``tests/data/golden_store_metrics.json`` holds what the script produced
before block reads resolved their metrics through pre-built label keys
and reservoirs drew their replacement slots in blocks; both changes must
leave every value exactly as it was.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.common import ClusterSpec
from repro.obs.metrics import (
    MetricsRegistry,
    parse_snapshot_key,
    reset_registry,
    set_registry,
)
from repro.store import LineageGraph, Master, StoreClient, UnderStore, Worker
from repro.system import SPCacheSystem

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden_store_metrics.json"

N_SP_FILES = 30
N_EC_FILES = 24
_SIZES = [int(s) for s in np.random.default_rng(3).integers(1_000, 9_000, N_SP_FILES)]


def _payload(file_id: int, size: int) -> bytes:
    return np.random.default_rng(1000 + file_id).bytes(size)


def _deterministic(snapshot: dict) -> dict:
    """``snapshot`` with each wall-clock histogram cut to its count."""
    out = {}
    for key, value in snapshot.items():
        name, _ = parse_snapshot_key(key)
        out[key] = {"count": value["count"]} if name.endswith(".seconds") else value
    return json.loads(json.dumps(out))


def _zipf_reads(system: SPCacheSystem, rng: np.random.Generator, n: int) -> None:
    weights = 1.0 / np.arange(1, N_SP_FILES + 1) ** 1.1
    for fid in rng.choice(N_SP_FILES, size=n, p=weights / weights.sum()):
        if system.read(int(fid)) != _payload(int(fid), _SIZES[int(fid)]):
            raise AssertionError(f"SP read of file {fid} returned other bytes")


def store_metrics_script() -> dict[str, dict]:
    """Run the seeded store script; returns both registries' snapshots."""
    first, second = MetricsRegistry(), MetricsRegistry()
    previous = set_registry(first)
    try:
        rng = np.random.default_rng(17)
        # SP-Cache on four workers: enough block gets per worker that the
        # block-size reservoirs fill and start replacing.
        system = SPCacheSystem(ClusterSpec(n_servers=4), seed=11)
        for fid, size in enumerate(_SIZES):
            system.write(fid, _payload(fid, size))
        _zipf_reads(system, rng, 1000)
        system.rebalance()
        _zipf_reads(system, rng, 1000)
        reset_registry()  # clears ``first``; the same workers keep counting
        for fid in (N_SP_FILES, N_SP_FILES + 1):
            system.write(fid, _payload(fid, 5_000))
            system.read(fid)
        _zipf_reads(system, rng, 2500)
        system.rebalance()
        _zipf_reads(system, rng, 2500)
        set_registry(second)
        _zipf_reads(system, rng, 300)

        # EC-Cache on LRU workers holding about half the coded bytes: reads
        # miss evicted shards and recover from the under-store.
        n_workers, k, n = 14, 10, 14
        ec_size = 6_000
        capacity = 0.5 * N_EC_FILES * ec_size * n / k / n_workers
        master = Master(n_workers, seed=5)
        workers = [Worker(i, capacity=capacity) for i in range(n_workers)]
        client = StoreClient(
            master, workers, under_store=UnderStore(), lineage=LineageGraph(), seed=5
        )
        for fid in range(N_EC_FILES):
            data = _payload(100 + fid, ec_size)
            client.write_ec(fid, data, k=k, n=n)
            client.under_store.checkpoint(fid, data)
        replicated = _payload(999, 4_000)
        client.write_replicated(N_EC_FILES, replicated, replicas=3)
        client.under_store.checkpoint(N_EC_FILES, replicated)
        for fid in rng.integers(0, N_EC_FILES, size=400):
            if client.read(int(fid)) != _payload(100 + int(fid), ec_size):
                raise AssertionError(f"EC read of file {fid} returned other bytes")
        for _ in range(20):
            if client.read(N_EC_FILES) != replicated:
                raise AssertionError("replicated read returned other bytes")
        return {
            "after_reset": _deterministic(first.snapshot()),
            "after_swap": _deterministic(second.snapshot()),
            "ec_recoveries": client.recoveries,
        }
    finally:
        set_registry(previous)


def test_store_metrics_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = store_metrics_script()
    assert got["ec_recoveries"] > 0, "the EC phase never evicted and recovered"
    evictions = [k for k in got["after_swap"] if k.startswith("store.block_evictions")]
    assert evictions, "the EC phase never evicted a block"
    assert got == expected


if __name__ == "__main__":
    # Regenerate the golden (only when a metric is meant to change).
    GOLDEN.write_text(
        json.dumps(store_metrics_script(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
