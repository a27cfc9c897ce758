"""SLO objectives, burn-rate alerting, and engine integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.simulation import SimulationConfig, simulate_reads
from repro.common import ClusterSpec, Gbps
from repro.obs import (
    DEFAULT_OBJECTIVES,
    RingBufferSink,
    SLOConfig,
    SLObjective,
    SLOMonitor,
    Tracer,
    collect_slo,
    default_slo_config,
    get_registry,
    get_slo_config,
    parse_objective,
    parse_slo,
    slo_from_trace,
    use_slo,
    use_tracer,
)
from repro.obs import events as ev
from repro.policies import SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace

from ..test_cluster.heap_oracle import simulate_oracle


def _monitor(config=None, **kw):
    kw.setdefault("scheme", "sp-cache")
    kw.setdefault("engine", "fifo")
    kw.setdefault("tracer", Tracer())
    return SLOMonitor(config or default_slo_config(), **kw)


def _breaching_workload(n=2000, frac_slow=0.5):
    """Arrival times over 100s; the second half of the run turns slow."""
    times = np.linspace(0.0, 100.0, n)
    latencies = np.where(times > 100.0 * (1 - frac_slow), 5.0, 0.001)
    return times, latencies


class TestParseObjective:
    def test_p99_spec(self):
        obj = parse_objective("p99<0.02")
        assert obj.kind == "latency"
        assert obj.threshold == 0.02
        assert obj.budget == 0.01

    def test_latency_alias(self):
        assert parse_objective("latency<1.5") == parse_objective("p99<1.5")

    def test_miss_threshold_is_budget(self):
        obj = parse_objective("miss<0.1")
        assert obj.kind == "miss"
        assert obj.budget == 0.1

    def test_budget_suffix(self):
        obj = parse_objective("imbalance<3@0.05")
        assert obj.kind == "imbalance"
        assert obj.threshold == 3.0
        assert obj.budget == 0.05

    @pytest.mark.parametrize(
        "spec", ["", "p99", "nope<1", "p99<", "miss", "imbalance", "p99<0<1"]
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_objective(spec)

    def test_parse_slo_splits_commas(self):
        cfg = parse_slo("p99<0.02, imbalance<3")
        assert [o.kind for o in cfg.objectives] == ["latency", "imbalance"]

    def test_parse_slo_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_slo("p99<1,latency<2")
        with pytest.raises(ValueError, match="empty"):
            parse_slo(" , ")


class TestConfigValidation:
    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SLObjective("x", "nope", threshold=1)
        with pytest.raises(ValueError):
            SLObjective("x", "latency", threshold=0.0)
        with pytest.raises(ValueError):
            SLObjective("x", "latency", threshold=1.0, budget=1.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SLOConfig(objectives=())
        with pytest.raises(ValueError):
            SLOConfig(
                objectives=(
                    SLObjective("a", "latency", threshold=1),
                    SLObjective("a", "miss"),
                )
            )

    def test_defaults_are_loose(self):
        cfg = default_slo_config()
        assert cfg.objectives == DEFAULT_OBJECTIVES


class TestAmbientConfig:
    def test_stacking(self):
        assert get_slo_config() is None
        a, b = default_slo_config(), parse_slo("p99<1")
        with use_slo(a):
            assert get_slo_config() is a
            with use_slo(b):
                assert get_slo_config() is b
            assert get_slo_config() is a
        assert get_slo_config() is None

    def test_collect_gathers_published_sections(self):
        times, lats = _breaching_workload()
        with collect_slo() as sink:
            from repro.obs import publish_slo

            publish_slo({"scheme": "x"})
        assert sink == [{"scheme": "x"}]

    def test_use_slo_rejects_non_config(self):
        with pytest.raises(TypeError):
            with use_slo("p99<1"):
                pass


class TestEvaluate:
    def test_tight_latency_objective_breaches(self):
        times, lats = _breaching_workload()
        cfg = parse_slo("p99<0.01")
        section = _monitor(cfg).evaluate(times, lats)
        assert section["breaches"] >= 1
        obj = section["objectives"][0]
        assert obj["met"] is False
        assert obj["bad_fraction"] == pytest.approx(0.5, abs=0.01)
        assert section["alerts"]
        assert all(
            a["severity"] in ("page", "warn") for a in section["alerts"]
        )

    def test_loose_objective_stays_quiet(self):
        times, lats = _breaching_workload()
        section = _monitor().evaluate(times, lats)
        assert section["breaches"] == 0
        assert all(o["met"] for o in section["objectives"])

    def test_recovery_closes_alert(self):
        # Slow burst in the middle third only: alert opens then closes.
        n = 3000
        times = np.linspace(0.0, 90.0, n)
        lats = np.where((times > 30) & (times < 60), 5.0, 0.001)
        section = _monitor(parse_slo("p99<0.01")).evaluate(times, lats)
        assert section["breaches"] >= 1
        assert section["recoveries"] >= 1
        closed = [a for a in section["alerts"] if not a["active"]]
        assert closed and closed[0]["t_end"] is not None

    def test_events_emitted_through_tracer(self):
        sink = RingBufferSink()
        times, lats = _breaching_workload()
        _monitor(parse_slo("p99<0.01"), tracer=Tracer(sink)).evaluate(
            times, lats
        )
        names = [r["event"] for r in sink.records]
        assert ev.SLO_BREACH in names

    def test_counters_in_registry(self):
        times, lats = _breaching_workload()
        _monitor(parse_slo("p99<0.01")).evaluate(times, lats)
        snap = get_registry().snapshot(prefix="slo.")
        assert any(k.startswith("slo.breaches") for k in snap)
        assert any(k.startswith("slo.budget_remaining") for k in snap)

    def test_empty_run(self):
        section = _monitor().evaluate(np.zeros(0), np.zeros(0))
        assert section["requests"] == 0
        assert section["breaches"] == 0
        assert all(o["met"] for o in section["objectives"])

    def test_miss_objective_without_signal_is_met(self):
        times, lats = _breaching_workload()
        section = _monitor(parse_slo("miss<0.1")).evaluate(times, lats)
        obj = section["objectives"][0]
        assert obj["met"] is True and obj["total"] == 0.0

    def test_miss_objective_with_flags(self):
        times, lats = _breaching_workload()
        missed = np.ones(times.size, dtype=bool)
        section = _monitor(parse_slo("miss<0.1")).evaluate(
            times, lats, missed=missed
        )
        obj = section["objectives"][0]
        assert obj["met"] is False and obj["bad_fraction"] == 1.0

    def test_miss_size_mismatch_raises(self):
        times, lats = _breaching_workload()
        with pytest.raises(ValueError, match="entries"):
            _monitor().evaluate(times, lats, missed=[True, False])

    def test_imbalance_from_server_bytes_fallback(self):
        times, lats = _breaching_workload()
        skewed = np.array([100.0, 1.0, 1.0, 1.0])
        section = _monitor(parse_slo("imbalance<2")).evaluate(
            times, lats, server_bytes=skewed
        )
        obj = section["objectives"][0]
        assert obj["met"] is False and obj["total"] == 1.0

    def test_imbalance_from_popularity_windows(self):
        times, lats = _breaching_workload()
        pop = {
            "windows": [
                {"t_start": 0.0, "max_mean": 1.1},
                {"t_start": 50.0, "max_mean": 4.0},
            ]
        }
        section = _monitor(parse_slo("imbalance<2")).evaluate(
            times, lats, popularity=pop
        )
        obj = section["objectives"][0]
        assert obj["total"] == 2.0 and obj["bad"] == 1.0


def _simulate(
    slo=None, tracer=None, batch_size=None, seed=5, oracle=False
):
    cluster = ClusterSpec(n_servers=10, bandwidth=Gbps)
    pop = paper_fileset(40, size_mb=20, zipf_exponent=1.1, total_rate=5)
    policy = SPCachePolicy(pop, cluster, seed=seed)
    trace = poisson_trace(pop, n_requests=300, seed=11)
    config = SimulationConfig(
        jitter="deterministic",
        seed=1,
        observers=(slo,) if slo is not None else (),
        batch_size=batch_size,
    )
    run = simulate_oracle if oracle else simulate_reads
    if tracer is not None:
        with use_tracer(tracer):
            return run(trace, policy, cluster, config)
    return run(trace, policy, cluster, config)


class TestEngineIntegration:
    def test_disabled_by_default(self):
        result = _simulate()
        assert "slo" not in result.sections

    def test_enabled_run_lands_section(self):
        result = _simulate(slo=parse_slo("p99<0.001"))
        assert "slo" in result.sections
        assert result.sections["slo"]["scheme"] == "sp-cache"
        assert result.sections["slo"]["requests"] == 300
        assert result.sections["slo"]["breaches"] >= 1

    def test_results_identical_with_and_without_slo(self):
        off = _simulate()
        on = _simulate(slo=default_slo_config())
        assert np.array_equal(off.latencies, on.latencies)
        assert np.array_equal(off.server_bytes, on.server_bytes)

    def test_batched_engine_matches_scalar_section(self):
        scalar = _simulate(slo=parse_slo("p99<0.001"), oracle=True)
        batched = _simulate(slo=parse_slo("p99<0.001"), batch_size=64)
        a, b = scalar.sections["slo"], batched.sections["slo"]
        assert a["breaches"] == b["breaches"]
        assert a["objectives"] == b["objectives"]

    def test_ambient_config_reaches_engine(self):
        with use_slo(parse_slo("p99<0.001")), collect_slo() as sink:
            result = _simulate()
        assert "slo" in result.sections and sink == [result.sections["slo"]]

    def test_breach_events_reach_trace(self):
        sink = RingBufferSink()
        _simulate(slo=parse_slo("p99<0.001"), tracer=Tracer(sink))
        names = {r["event"] for r in sink.records}
        assert ev.SLO_BREACH in names


class TestSloFromTrace:
    def test_reevaluates_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        from repro.obs import FileSink

        sink = FileSink(path)
        _simulate(tracer=Tracer(sink))
        sink.close()
        sections = slo_from_trace(str(path), parse_slo("p99<0.001"))
        assert len(sections) == 1
        assert sections[0]["scheme"] == "sp-cache"
        assert sections[0]["engine"] == "trace"
        assert sections[0]["breaches"] >= 1

    def test_never_reemits_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        from repro.obs import FileSink

        sink = FileSink(path)
        _simulate(tracer=Tracer(sink))
        sink.close()
        out = RingBufferSink()
        with use_tracer(Tracer(out)):
            slo_from_trace(str(path), parse_slo("p99<0.001"))
        assert not out.records
