"""Sim-time timelines: section shape, attribution exactness, determinism.

The cross-discipline parity angle (``limited(1)`` vs ``fifo``,
``limited(inf)`` vs ``ps`` producing identical timelines) lives in
``tests/test_cluster/test_timeline_parity.py``; this file covers the
collector itself through the public ``simulate_reads`` surface plus the
ambient-config/sink plumbing and the rendering helpers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import SimulationConfig, StragglerInjector, simulate_reads
from repro.common import ClusterSpec, Gbps
from repro.obs import (
    TIMELINE_SCHEMA_VERSION,
    TIMELINES,
    TimelineConfig,
    chrome_counter_events,
    collect_timelines,
    get_timeline_config,
    publish_timeline,
    sparkline,
    tail_attribution_rows,
    timeline_series_rows,
    use_timeline,
)
from repro.obs.timeline import (
    TARGET_WINDOWS,
    _accumulate_overlap,
    window_width,
)
from repro.policies import SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace


def _scenario(n_servers=10, n_requests=300):
    cluster = ClusterSpec(n_servers=n_servers, bandwidth=Gbps)
    pop = paper_fileset(40, size_mb=20, zipf_exponent=1.1, total_rate=5)
    policy = SPCachePolicy(pop, cluster, seed=5)
    trace = poisson_trace(pop, n_requests=n_requests, seed=11)
    return trace, policy, cluster


def _simulate(discipline="ps", timeline=TimelineConfig(), **overrides):
    trace, policy, cluster = _scenario()
    base = dict(
        discipline=discipline,
        jitter="deterministic",
        seed=1,
        observers=(timeline,) if timeline is not None else (),
    )
    base.update(overrides)
    return simulate_reads(trace, policy, cluster, SimulationConfig(**base))


# -- enablement ---------------------------------------------------------


def test_disabled_by_default():
    result = _simulate(timeline=None)
    assert "timeline" not in result.sections


def test_explicit_config_enables_collection():
    result = _simulate()
    section = result.sections["timeline"]
    assert section is not None
    assert section["schema_version"] == TIMELINE_SCHEMA_VERSION
    assert section["scheme"] == "sp-cache"
    assert section["engine"] == "ps"


def test_ambient_config_enables_collection():
    with use_timeline(TimelineConfig()):
        result = _simulate(timeline=None)
    assert "timeline" in result.sections
    assert result.sections["timeline"]["tail"]["k"] == 64
    assert get_timeline_config() is None  # restored on exit


def test_explicit_config_wins_over_ambient():
    explicit = TimelineConfig()
    with use_timeline(TimelineConfig()) as ambient:
        assert TIMELINES.resolve(explicit) is explicit
        assert TIMELINES.resolve(None) is ambient
        result = _simulate(timeline=explicit)
    assert result.sections["timeline"]["tail"]["k"] == 64


def test_collect_timelines_receives_published_sections():
    with collect_timelines() as outer:
        with collect_timelines() as inner:
            result = _simulate()
        _simulate()
    # Nested sinks both see the inner publish; the outer saw both runs.
    assert len(inner) == 1
    assert len(outer) == 2
    assert inner[0] == result.sections["timeline"]


def test_publish_timeline_without_sinks_is_noop():
    publish_timeline({"scheme": "x"})  # must not raise


def test_use_timeline_rejects_non_config():
    with pytest.raises(TypeError, match="TimelineConfig"):
        with use_timeline({"window_s": 1.0}):
            pass


def test_simulation_config_rejects_bad_timeline():
    with pytest.raises(TypeError, match="TimelineConfig"):
        SimulationConfig(observers=({"window_s": 1.0},))


# The timeline's knobs are module constants: its config takes none, so a
# caller still passing one fails instead of silently getting the default.
@pytest.mark.parametrize(
    "kwargs",
    [
        {"window_s": 0.0},
        {"window_s": -1.0},
        {"target_windows": 0},
        {"max_windows": 0},
        {"tail_k": 0},
        {"reservoir_size": 0},
    ],
)
def test_timeline_config_validates(kwargs):
    with pytest.raises(TypeError):
        TimelineConfig(**kwargs)


# -- section shape ------------------------------------------------------


def test_section_series_shapes_agree():
    section = _simulate().sections["timeline"]
    n_windows, n_servers = section["n_windows"], section["n_servers"]
    for key in ("bytes", "busy_s", "queue_depth"):
        arr = np.asarray(section[key])
        assert arr.shape == (n_windows, n_servers)
        assert (arr >= 0).all()
    assert len(section["latency"]) == n_windows
    counts = sum(row["count"] for row in section["latency"])
    assert counts == section["n_requests"] == 300
    # The automatic width cuts every run into 24 or 25 windows, so no
    # sample is ever past the last one.
    assert n_windows in (24, 25)
    assert section["clipped_partitions"] == section["clipped_requests"] == 0


def test_bytes_series_conserves_server_bytes():
    result = _simulate()
    total = np.asarray(result.sections["timeline"]["bytes"]).sum()
    assert np.isclose(total, result.server_bytes.sum())


def test_windowed_latency_percentiles_present():
    section = _simulate().sections["timeline"]
    populated = [r for r in section["latency"] if r["count"]]
    assert populated
    for row in populated:
        assert row["p50"] <= row["p95"] <= row["p99"]
        assert row["t_start"] < row["t_end"]


def test_sections_are_json_serializable():
    section = _simulate().sections["timeline"]
    parsed = json.loads(json.dumps(section))
    assert parsed["n_requests"] == section["n_requests"]


# -- tail attribution ---------------------------------------------------


def test_exemplar_components_sum_to_latency():
    section = _simulate(
        stragglers=StragglerInjector.intensive()
    ).sections["timeline"]
    exemplars = section["tail"]["exemplars"]
    assert len(exemplars) == section["tail"]["k"]
    for e in exemplars:
        c = e["components"]
        total = (
            c["queueing_s"] + c["straggling_s"] + c["transfer_s"] + c["join_s"]
        )
        assert total == pytest.approx(e["latency_s"], rel=1e-9, abs=1e-12)
        (crit,) = [p for p in e["partitions"] if p["critical"]]
        assert e["parallelism"] == len(e["partitions"])
        # The split is the critical partition's own row.
        assert c["queueing_s"] == crit["queue_s"]
        assert c["transfer_s"] == crit["transfer_s"]
        assert c["straggling_s"] == crit["straggle_s"]
        assert e["last_server"] == crit["server"]


def test_attribution_components_sum_to_mean_tail_latency():
    att = _simulate(
        stragglers=StragglerInjector.intensive()
    ).sections["timeline"]["tail"]["attribution"]
    total = (
        att["queueing_s"]
        + att["straggling_s"]
        + att["transfer_s"]
        + att["join_s"]
    )
    assert total == pytest.approx(att["mean_tail_latency_s"], rel=1e-9)
    # 300 requests minus the config's default 10% warmup skip.
    assert att["requests"] == 270


def test_straggler_component_larger_with_stragglers_on():
    """The fig19 acceptance angle: injected stragglers must surface as a
    strictly larger straggling component than a stragglers-off run."""
    on = _simulate(stragglers=StragglerInjector.intensive()).sections["timeline"]
    off = _simulate(stragglers=StragglerInjector.none()).sections["timeline"]
    s_on = on["tail"]["attribution"]["straggling_s"]
    s_off = off["tail"]["attribution"]["straggling_s"]
    assert s_on > s_off == 0.0
    assert any(e["straggled"] for e in on["tail"]["exemplars"])


def test_warmup_fraction_skips_head_of_trace():
    result = _simulate(warmup_fraction=0.5)
    tail = result.sections["timeline"]["tail"]
    assert tail["warmup_skipped"] == 150
    assert tail["attribution"]["requests"] == 150
    assert all(e["req"] >= 150 for e in tail["exemplars"])


def test_miss_flag_reaches_exemplars():
    trace, policy, cluster = _scenario()
    config = SimulationConfig(
        discipline="ps",
        jitter="deterministic",
        seed=1,
        cache_budget=25 * 1024 * 1024,  # room for ~one 20 MB file
        miss_penalty=5.0,
        observers=(TimelineConfig(),),
    )
    result = simulate_reads(trace, policy, cluster, config)
    exemplars = result.sections["timeline"]["tail"]["exemplars"]
    # A 5x penalty pushes missed requests into the slowest-K reservoir.
    assert any(e["missed"] for e in exemplars)
    # The miss penalty lands after the join, so the join component
    # carries it.
    assert result.sections["timeline"]["tail"]["attribution"]["join_s"] > 0


# -- determinism --------------------------------------------------------


def test_identical_runs_produce_byte_identical_sections():
    a = _simulate(stragglers=StragglerInjector.intensive()).sections["timeline"]
    b = _simulate(stragglers=StragglerInjector.intensive()).sections["timeline"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@given(
    st.just(0.0)
    | st.floats(min_value=1e-12, max_value=1e12)
    | st.integers(min_value=1, max_value=10**9).map(float)
)
def test_windows_cover_every_span(span_end):
    """The last window holds ``span_end`` and ends past it, so every
    interval in ``[0, span_end]`` lands in a window without clipping:
    the whole span is charged, none of it past the last window."""
    window_s = window_width(span_end)
    # As TimelineCollector.finalize counts them.
    n_windows = int(np.floor(span_end / window_s)) + 1
    assert np.floor(span_end / window_s) == n_windows - 1
    assert n_windows * window_s > span_end
    if span_end > 0.0:
        assert n_windows in (TARGET_WINDOWS, TARGET_WINDOWS + 1)
    busy = np.zeros((n_windows, 1))
    _accumulate_overlap(
        busy, np.array([0.0]), np.array([span_end]), np.array([0]), window_s
    )
    assert busy.sum() == pytest.approx(span_end, rel=1e-12)


# -- rendering helpers --------------------------------------------------


def test_sparkline_spans_blocks():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0]) == "▁▁"
    line = sparkline([0, 1, 2, 3])
    assert len(line) == 4
    assert line[0] == "▁" and line[-1] == "█"


def test_timeline_series_rows_cover_each_series():
    section = _simulate().sections["timeline"]
    rows = timeline_series_rows(section)
    names = [r["series"] for r in rows]
    assert "bytes/window" in names
    assert "p99 latency (s)" in names
    for row in rows:
        assert len(row["spark"]) == section["n_windows"]
        assert row["min"] <= row["max"]


def test_tail_attribution_rows_share_sums_to_100():
    section = _simulate().sections["timeline"]
    rows = tail_attribution_rows(section)
    assert [r["component"] for r in rows] == [
        "queueing", "straggling", "transfer", "join",
    ]
    assert sum(r["share_pct"] for r in rows) == pytest.approx(100.0)


def test_chrome_counter_events_shape():
    section = _simulate().sections["timeline"]
    events = chrome_counter_events([section])
    meta = [e for e in events if e["ph"] == "M"]
    counters = [e for e in events if e["ph"] == "C"]
    assert len(meta) == 1
    assert meta[0]["args"]["name"] == "repro.simtime"
    assert len(counters) == 3 * section["n_windows"]
    assert all(e["pid"] == 2 for e in counters)
    assert chrome_counter_events([]) == []


# -- degenerate runs ----------------------------------------------------


def test_zero_request_run_finalizes_empty_section():
    from repro.workloads.arrivals import ArrivalTrace

    trace, policy, cluster = _scenario()
    empty = ArrivalTrace(np.empty(0), np.empty(0, dtype=np.int64))
    result = simulate_reads(
        empty,
        policy,
        cluster,
        SimulationConfig(
            discipline="ps",
            jitter="deterministic",
            seed=0,
            observers=(TimelineConfig(),),
        ),
    )
    section = result.sections["timeline"]
    assert section["n_requests"] == 0
    assert section["n_windows"] == 0
    assert section["tail"]["exemplars"] == []
    json.dumps(section)  # still serializable


def test_custom_discipline_without_partition_hooks_charges_join():
    """A discipline that never records partitions still yields a valid
    section — attribution charges everything to the join component."""
    from repro.cluster import register_discipline
    from repro.cluster.engine.registry import _REGISTRY

    class Flat:
        name = "flatjoin"

        def run(self, lc):
            latencies = np.full(lc.n_requests, 2.0)
            server_bytes = np.zeros(lc.cluster.n_servers)
            return lc.result(latencies, server_bytes)

    register_discipline("flatjoin", Flat)
    try:
        trace, policy, cluster = _scenario()
        result = simulate_reads(
            trace,
            policy,
            cluster,
            SimulationConfig(
                discipline="flatjoin", observers=(TimelineConfig(),)
            ),
        )
    finally:
        _REGISTRY.pop("flatjoin", None)
    att = result.sections["timeline"]["tail"]["attribution"]
    assert att["join_s"] == pytest.approx(att["mean_tail_latency_s"])
    assert att["queueing_s"] == att["transfer_s"] == att["straggling_s"] == 0.0
