"""Causal span trees across the store data plane.

Every store operation must propagate trace context down its call chain:
``store.put`` parents the master placement and the per-block worker
writes, ``store.read`` parents the lookup and the reads, and a miss
path hangs the whole recovery chain — ``store.recover`` →
``lineage.recover`` (one span per recursion level) → the nested reads
and re-cache writes — under the read that triggered it.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    RingBufferSink,
    Tracer,
    get_registry,
    span_forest,
    use_tracer,
)
from repro.obs import events as ev
from repro.store import Master, StoreClient, Worker


def make_store(n_workers=8, capacity=float("inf"), seed=0):
    master = Master(n_workers, seed=seed)
    workers = [Worker(i, capacity=capacity) for i in range(n_workers)]
    return StoreClient(master, workers, seed=seed)


@pytest.fixture()
def sink():
    buffer = RingBufferSink()
    with use_tracer(Tracer(buffer)):
        yield buffer


def _roots(sink, name=None):
    roots = span_forest(list(sink.records))
    if name is not None:
        roots = [r for r in roots if r.get("name") == name]
    return roots


def _child_names(node):
    return sorted(c["name"] for c in node["children"])


def test_put_parents_placement_and_writes(sink):
    client = make_store()
    client.write(1, b"x" * 1000, k=4)
    (root,) = _roots(sink)
    assert root["name"] == "store.put"
    assert root["parent_id"] is None
    assert root["kind"] == "partitioned"
    assert _child_names(root) == ["master.place"] + ["worker.write"] * 4
    for child in root["children"]:
        assert child["trace_id"] == root["trace_id"]
        assert child["parent_id"] == root["span_id"]


def test_read_parents_lookup_and_block_reads(sink):
    client = make_store()
    client.write(1, b"y" * 900, k=3)
    client.read(1)
    reads = _roots(sink, "store.read")
    assert len(reads) == 1
    (read_root,) = reads
    assert _child_names(read_root) == ["master.lookup"] + ["worker.read"] * 3
    # worker.read spans carry enough identity to localize the block
    for child in read_root["children"]:
        if child["name"] == "worker.read":
            assert {"worker_id", "file_id", "index"} <= set(child)


def test_each_store_trace_is_its_own_root(sink):
    client = make_store()
    client.write(1, b"a" * 100, k=2)
    client.write(2, b"b" * 100, k=2)
    client.read(1)
    roots = _roots(sink)
    assert [r["name"] for r in roots] == [
        "store.put", "store.put", "store.read"
    ]
    assert len({r["trace_id"] for r in roots}) == 3


def test_miss_recovery_chain_hangs_under_the_read(sink):
    """A crashed worker set forces lineage recomputation; the whole
    recovery — recover span, recursive lineage levels, the parent's
    nested read, and the re-cache writes — must share the triggering
    read's trace."""
    client = make_store()
    client.write(5, b"p" * 400, k=2)
    client.lineage.register(
        7, parents=(5,), recompute=lambda parts: parts[0][:100]
    )
    client.write(7, b"p" * 100, k=2)
    # lose only the derived file: its recompute pulls parent 5 through a
    # nested store.read inside the lineage recursion
    for worker in client.workers:
        worker.delete_file(7)
    sink.records.clear()

    data = client.read(7)
    assert data == b"p" * 100

    (read_root,) = _roots(sink, "store.read")
    assert read_root["file_id"] == 7
    # the miss path: lookup, the failed block read, then recovery
    names = _child_names(read_root)
    assert names.count("store.recover") == 1
    recover = next(
        c for c in read_root["children"] if c["name"] == "store.recover"
    )
    # recovery = one lineage recursion root + the re-cache block writes
    (lineage_7,) = [
        c for c in recover["children"] if c["name"] == "lineage.recover"
    ]
    assert lineage_7["file_id"] == 7
    recache = [
        c for c in recover["children"] if c["name"] == "worker.write"
    ]
    assert len(recache) == 2  # k=2 partitions re-cached
    # recursion level for the parent, with its nested store.read inside
    lineage_5 = next(
        c
        for c in lineage_7["children"]
        if c["name"] == "lineage.recover" and c["file_id"] == 5
    )
    nested_reads = [
        c for c in lineage_5["children"] if c["name"] == "store.read"
    ]
    assert len(nested_reads) == 1
    assert nested_reads[0]["file_id"] == 5
    # every span in the tree shares the read's trace id
    stack = [read_root]
    while stack:
        node = stack.pop()
        assert node["trace_id"] == read_root["trace_id"]
        stack.extend(node["children"])
    # a RECOVERY event was traced for the triggering file
    recoveries = [
        r for r in sink.records if r.get("event") == ev.RECOVERY
    ]
    assert recoveries and recoveries[-1]["file_id"] == 7
    assert recoveries[-1]["bytes"] == 100
    assert client.recoveries >= 1


def test_recovery_counters_feed_registry(sink):
    client = make_store()
    client.write(1, b"q" * 200, k=1)
    client.lineage.register(
        2, parents=(1,), recompute=lambda parts: parts[0]
    )
    client.write(2, b"q" * 200, k=1)
    before_rec = get_registry().counter("store.recoveries").value
    before_cmp = get_registry().counter("lineage.recomputes").value
    for worker in client.workers:
        worker.delete_file(2)
    client.read(2)
    assert get_registry().counter("store.recoveries").value == before_rec + 1
    assert (
        get_registry().counter("lineage.recomputes").value == before_cmp + 1
    )


def test_evictions_open_worker_spans(sink):
    worker = Worker(0, capacity=250)
    worker.put_block(1, 0, b"z" * 200)
    worker.put_block(2, 0, b"z" * 200)  # evicts (1, 0)
    evicts = [
        r
        for r in sink.records
        if r.get("event") == ev.CSPAN and r.get("name") == "worker.evict"
    ]
    assert len(evicts) == 1
    assert evicts[0]["file_id"] == 1
    # the evict happened inside the second put, so it parents under it
    writes = [
        r
        for r in sink.records
        if r.get("event") == ev.CSPAN and r.get("name") == "worker.write"
    ]
    assert evicts[0]["parent_id"] in {w["span_id"] for w in writes}


class _UntouchableContext:
    """Stands in for the causal ContextVar; any access fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"disabled tracing touched the context ({name})")


def test_disabled_tracer_opens_no_spans(monkeypatch):
    import repro.obs.causal as causal
    from repro.obs import causal_span, current_context

    # With tracing off, every span is the one shared no-op: it yields
    # None and never reads or sets the context variable.
    shared = causal_span("worker.read", worker_id=1, file_id=2, index=0)
    assert causal_span("store.read", file_id=2) is shared
    monkeypatch.setattr(causal, "_ctx", _UntouchableContext())
    with causal_span("worker.read", worker_id=1) as ctx:
        assert ctx is None
    client = make_store()
    client.write(1, b"n" * 100, k=2)
    assert client.read(1) == b"n" * 100
    monkeypatch.undo()
    assert current_context() is None
