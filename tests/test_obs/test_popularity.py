"""Streaming popularity observation: sketch accuracy contracts, window
rolling, drift/hot-spot alerting, and the engine/trace plumbing.

The end-to-end repartition fidelity gates (top-K precision >= 0.9, Zipf
alpha within 10 %) are asserted by ``repro.experiments.fig16_sketch``;
this file covers the primitives and the wiring.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster import SimulationConfig, simulate_reads
from repro.common import ClusterSpec, Gbps
from repro.obs import popularity as popularity_module
from repro.obs import (
    POPULARITY_SCHEMA_VERSION,
    CountMinSketch,
    PopularityConfig,
    PopularityMonitor,
    RingBufferSink,
    SpaceSavingTopK,
    Tracer,
    collect_popularity,
    get_popularity_config,
    popularity_from_trace,
    publish_popularity,
    use_popularity,
    zipf_alpha_from_counts,
)
from repro.policies import SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace


def _zipf_stream(n_files=300, n_requests=20_000, alpha=1.05, seed=0):
    """A seeded Zipf request stream plus its exact per-file counts."""
    ranks = np.arange(1, n_files + 1, dtype=np.float64)
    p = ranks**-alpha
    p /= p.sum()
    rng = np.random.default_rng(seed)
    fids = rng.choice(n_files, size=n_requests, p=p)
    return fids, np.bincount(fids, minlength=n_files).astype(np.float64)


# -- Count-Min sketch ---------------------------------------------------


def test_cms_never_underestimates_and_meets_error_bound():
    fids, exact = _zipf_stream()
    sketch = CountMinSketch(width=1024, depth=4, seed=0)
    keys, counts = np.unique(fids, return_counts=True)
    sketch.update(keys, counts)
    est = sketch.estimate_many(np.arange(exact.size))
    assert np.all(est >= exact - 1e-9)  # the one-sided guarantee
    # Deterministic seed, so the probabilistic bound holds exactly here.
    assert np.max(est - exact) <= sketch.epsilon * sketch.total


def test_cms_survives_heavy_collisions():
    fids, exact = _zipf_stream(n_files=500, n_requests=5_000)
    sketch = CountMinSketch(width=16, depth=3, seed=1)
    sketch.update(fids)  # unit counts, un-aggregated
    est = sketch.estimate_many(np.arange(exact.size))
    assert np.all(est >= exact - 1e-9)
    assert sketch.total == pytest.approx(5_000)


def test_cms_width_rounds_to_power_of_two():
    sketch = CountMinSketch(width=1000, depth=2)
    assert sketch.width == 1024
    assert sketch.epsilon == pytest.approx(np.e / 1024)
    assert sketch.delta == pytest.approx(np.exp(-2))
    assert sketch.memory_bytes == 2 * 1024 * 8


def test_cms_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        CountMinSketch(width=1)
    with pytest.raises(ValueError):
        CountMinSketch(depth=0)


# -- Space-Saving summary -----------------------------------------------


def test_space_saving_count_error_brackets_truth():
    fids, exact = _zipf_stream(n_files=400, n_requests=30_000)
    summary = SpaceSavingTopK(capacity=64)
    keys, counts = np.unique(fids, return_counts=True)
    summary.update_many(keys, counts)
    assert len(summary) <= 64
    for key, count, error in summary.top():
        true = exact[key]
        assert count - error - 1e-9 <= true <= count + 1e-9


def test_space_saving_retains_the_heavy_hitters():
    fids, exact = _zipf_stream(n_files=400, n_requests=30_000)
    summary = SpaceSavingTopK(capacity=64)
    keys, counts = np.unique(fids, return_counts=True)
    summary.update_many(keys, counts)
    retained = {key for key, _c, _e in summary.top()}
    true_top = set(np.argsort(-exact, kind="stable")[:16].tolist())
    assert true_top <= retained


@pytest.mark.parametrize("capacity", [1, 3, 16, 64])
def test_space_saving_batch_equals_per_key_updates(capacity):
    """update_many over several windows is update() per key, heaviest
    first (ties by key): same counts, same errors, same evictions —
    including fractional and zero counts."""
    rng = np.random.default_rng(capacity)
    batch = SpaceSavingTopK(capacity=capacity)
    single = SpaceSavingTopK(capacity=capacity)
    for window in range(12):
        keys = np.unique(rng.integers(0, 120, size=90))
        counts = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 7.0], size=keys.size)
        batch.update_many(keys, counts)
        for i in np.lexsort((keys, -counts)):
            single.update(int(keys[i]), float(counts[i]))
        assert batch.top() == single.top(), window


def test_space_saving_eviction_is_deterministic():
    def fill(order):
        s = SpaceSavingTopK(capacity=3)
        for key, count in order:
            s.update(key, count)
        return s.top()

    a = fill([(1, 5.0), (2, 5.0), (3, 1.0), (4, 2.0)])
    b = fill([(2, 5.0), (1, 5.0), (3, 1.0), (4, 2.0)])
    assert a == b
    assert [key for key, _c, _e in a] == [1, 2, 4]


# -- Zipf estimator -----------------------------------------------------


def test_zipf_alpha_recovers_synthetic_exponent():
    ranks = np.arange(1, 65, dtype=np.float64)
    counts = 1e4 * ranks**-1.2
    assert zipf_alpha_from_counts(counts) == pytest.approx(1.2, abs=1e-9)


def test_zipf_alpha_needs_three_positive_counts():
    assert zipf_alpha_from_counts([]) is None
    assert zipf_alpha_from_counts([5.0, 3.0]) is None
    assert zipf_alpha_from_counts([5.0, 3.0, 0.0]) is None


# -- config validation --------------------------------------------------


# Out-of-range values of a field are a ValueError.  The knobs that are
# module constants now are no fields: setting one is a TypeError, so a
# caller still passing, say, ``window_s`` fails instead of silently
# getting request-count windows.
@pytest.mark.parametrize(
    "overrides",
    [
        {"width": 1},
        {"depth": 0},
        {"top_k": 0},
        {"top_k": 129},  # more than the Space-Saving capacity
        {"window_requests": 0},
        {"window_s": 0.0},
        {"max_windows": 0},
        {"ewma_alpha": 0.0},
        {"drift_threshold": -0.1},
        {"churn_threshold": 1.5},
        {"hotspot_share": 0.0},
        {"min_window_count": 0},
        {"estimate_ids": 0},
    ],
)
def test_config_rejects_bad_values(overrides):
    fields = {f.name for f in dataclasses.fields(PopularityConfig)}
    with pytest.raises(ValueError if set(overrides) <= fields else TypeError):
        PopularityConfig(**overrides)


# -- the monitor --------------------------------------------------------


def test_count_windows_roll_and_finalize_shape():
    config = PopularityConfig(window_requests=100, top_k=4)
    monitor = PopularityMonitor(config, scheme="sp-cache", engine="fifo")
    fids, _ = _zipf_stream(n_files=20, n_requests=350, seed=3)
    for fid in fids:
        monitor.observe(int(fid))
    section = monitor.finalize()
    assert section["schema_version"] == POPULARITY_SCHEMA_VERSION
    assert section["scheme"] == "sp-cache"
    assert section["requests"] == 350
    assert section["n_windows"] == 4  # 3 full rolls + the 50-request tail
    assert [w["count"] for w in section["windows"]] == [100, 100, 100, 50]
    assert len(section["top"]) <= 4
    assert section["sketch"]["capacity"] == 128


@pytest.mark.parametrize("window_requests", [7, 256])
def test_uneven_batches_equal_per_request_observation(window_requests):
    """observe_batch over uneven batches (windows spanning several calls)
    builds the section that observe() builds per request, and the sketch
    read after finalize holds every request."""
    fids, _exact = _zipf_stream(n_files=40, n_requests=3000, seed=6)
    times = np.arange(fids.size) * 0.01
    config = PopularityConfig(window_requests=window_requests, top_k=4)
    single = PopularityMonitor(config, n_servers=3)
    for t, fid in zip(times, fids):
        single.observe(int(fid), t=float(t))
    batched = PopularityMonitor(config, n_servers=3)
    batched.attach_cumulative_loads(np.zeros(3))
    cuts = [0, 1, 100, 357, 358, 1200, 2999, 3000]
    for lo, hi in zip(cuts, cuts[1:]):
        batched.observe_batch(times[lo:hi], fids[lo:hi], lambda a, b: None)
    assert batched.finalize() == single.finalize()
    reference = CountMinSketch()
    reference.update(fids)
    assert batched.sketch.total == fids.size
    np.testing.assert_array_equal(batched.sketch.table, reference.table)


def test_windows_count_requests_and_span_their_sim_seconds():
    monitor = PopularityMonitor(PopularityConfig(window_requests=10))
    for i in range(40):
        monitor.observe(i % 5, t=i * 0.1)  # 4 sim-seconds of traffic
    section = monitor.finalize()
    assert section["n_windows"] == 4
    starts = [w["t_start"] for w in section["windows"]]
    ends = [w["t_end"] for w in section["windows"]]
    assert starts == pytest.approx([0.0, 1.0, 2.0, 3.0])
    assert ends == pytest.approx([0.9, 1.9, 2.9, 3.9])


def test_drift_alert_fires_on_distribution_shift():
    monitor = PopularityMonitor(
        PopularityConfig(window_requests=200), scheme="x"
    )
    for _ in range(200):
        monitor.observe(0)
    for _ in range(200):
        monitor.observe(1)  # disjoint support: L1 distance = 2.0
    section = monitor.finalize()
    drift = [a for a in section["alerts"] if a["kind"] == "drift"]
    assert len(drift) == 1
    assert drift[0]["l1"] == pytest.approx(2.0)
    assert drift[0]["trigger"] == "l1"


def test_sparse_windows_cannot_trip_drift():
    # Ten-request windows hold fewer than the alerts' minimum evidence.
    monitor = PopularityMonitor(PopularityConfig(window_requests=10))
    for _ in range(10):
        monitor.observe(0)
    for _ in range(10):
        monitor.observe(1)
    section = monitor.finalize()
    assert [a for a in section["alerts"] if a["kind"] == "drift"] == []


def test_hotspot_alert_on_dominant_file():
    monitor = PopularityMonitor(PopularityConfig(window_requests=100))
    for i in range(100):
        monitor.observe(7 if i % 4 else i)  # file 7 takes ~75 %
    section = monitor.finalize()
    hot = [a for a in section["alerts"] if a["kind"] == "hotspot"]
    assert hot and hot[0]["file_id"] == 7
    assert hot[0]["share"] >= 0.5


def test_max_windows_clips_rows_but_keeps_counts(monkeypatch):
    monkeypatch.setattr(popularity_module, "_MAX_WINDOWS", 2)
    monitor = PopularityMonitor(PopularityConfig(window_requests=10))
    for i in range(50):
        monitor.observe(i % 3)
    section = monitor.finalize()
    assert len(section["windows"]) == 2
    assert section["clipped_windows"] == 3
    assert section["n_windows"] == 5
    assert section["requests"] == 50


def test_server_loads_feed_imbalance_ewma():
    monitor = PopularityMonitor(PopularityConfig(window_requests=4), n_servers=4)
    servers = np.array([0, 1])
    for _ in range(8):
        monitor.observe(0, servers=servers, sizes=np.array([10.0, 10.0]))
    section = monitor.finalize()
    imb = section["imbalance"]
    # Two of four servers loaded equally: max/mean = 2, CV = 1.
    assert imb["ewma_max_mean"] == pytest.approx(2.0)
    assert imb["ewma_cv"] == pytest.approx(1.0)


def test_unknown_server_ids_grow_the_load_vector():
    monitor = PopularityMonitor(PopularityConfig(), n_servers=2)
    monitor.observe(0, servers=np.array([5]), sizes=np.array([1.0]))
    section = monitor.finalize()  # growth happens at the window fold
    assert monitor.n_servers == 6
    assert section["n_servers"] == 6


def test_estimated_popularities_track_empirical():
    fids, exact = _zipf_stream(n_files=50, n_requests=10_000, seed=4)
    monitor = PopularityMonitor(PopularityConfig(window_requests=1000))
    for fid in fids:
        monitor.observe(int(fid))
    monitor.finalize()
    est = monitor.estimated_popularities(50)
    empirical = exact / exact.sum()
    assert est.sum() == pytest.approx(1.0)
    assert np.abs(est - empirical).sum() < 0.02


def test_estimated_popularities_uniform_before_data():
    monitor = PopularityMonitor(PopularityConfig())
    assert monitor.estimated_popularities(4) == pytest.approx([0.25] * 4)
    with pytest.raises(ValueError):
        monitor.estimated_popularities(0)


def test_monitor_emits_window_and_alert_trace_events():
    sink = RingBufferSink()
    monitor = PopularityMonitor(
        PopularityConfig(window_requests=100), scheme="sp", tracer=Tracer(sink)
    )
    for _ in range(200):
        monitor.observe(3)
    monitor.finalize()
    names = [r["event"] for r in sink.records]
    assert names.count("popularity_window") == 2
    assert "hotspot" in names


def test_monitor_rejects_non_config():
    with pytest.raises(TypeError):
        PopularityMonitor({"width": 8})


# -- engine + ambient plumbing ------------------------------------------


def _simulate(discipline="fifo", popularity=None, **overrides):
    cluster = ClusterSpec(n_servers=10, bandwidth=Gbps)
    pop = paper_fileset(40, size_mb=20, zipf_exponent=1.1, total_rate=5)
    policy = SPCachePolicy(pop, cluster, seed=5)
    trace = poisson_trace(pop, n_requests=300, seed=11)
    base = dict(
        discipline=discipline,
        jitter="deterministic",
        seed=1,
        observers=(popularity,) if popularity is not None else (),
    )
    base.update(overrides)
    return simulate_reads(trace, policy, cluster, SimulationConfig(**base))


def test_simulation_disabled_by_default():
    assert "popularity" not in _simulate().sections


@pytest.mark.parametrize("discipline", ["fifo", "ps"])
def test_simulation_observes_every_request(discipline):
    config = PopularityConfig(window_requests=100)
    result = _simulate(discipline=discipline, popularity=config)
    section = result.sections["popularity"]
    assert section is not None
    assert section["scheme"] == "sp-cache"
    assert section["engine"] == discipline
    assert section["requests"] == 300
    assert section["n_servers"] == 10
    assert any(w["cv"] is not None for w in section["windows"])


def test_popularity_leaves_latencies_untouched():
    base = _simulate()
    observed = _simulate(popularity=PopularityConfig(window_requests=64))
    np.testing.assert_array_equal(base.latencies, observed.latencies)


def test_ambient_config_and_collector():
    sections: list[dict] = []
    with collect_popularity(sections):
        with use_popularity(PopularityConfig(window_requests=100)) as cfg:
            assert get_popularity_config() is cfg
            result = _simulate()
    assert get_popularity_config() is None
    assert "popularity" in result.sections
    assert sections == [result.sections["popularity"]]


def test_publish_without_collector_is_noop():
    publish_popularity({"scheme": "orphan"})  # must not raise


def test_use_popularity_rejects_non_config():
    with pytest.raises(TypeError):
        with use_popularity(None):
            pass


# -- trace replay -------------------------------------------------------


def test_popularity_from_trace_splits_by_scheme():
    events = []
    for i in range(120):
        events.append(
            {
                "event": "read",
                "ts": i * 0.01,
                "scheme": "sp-cache" if i % 2 else "ec-cache",
                "file_id": i % 7,
                "servers": [0, 1],
                "sizes": [4.0, 4.0],
            }
        )
    events.append({"event": "read_done", "ts": 2.0, "scheme": "sp-cache"})
    sections = popularity_from_trace(
        events, PopularityConfig(window_requests=30)
    )
    assert [s["scheme"] for s in sections] == ["ec-cache", "sp-cache"]
    assert all(s["engine"] == "trace" for s in sections)
    assert all(s["requests"] == 60 for s in sections)
    assert all(s["n_servers"] == 2 for s in sections)
