"""OpenMetrics exposition: rendering and parse-checking."""

from __future__ import annotations

import pytest

from repro.obs import (
    MetricsRegistry,
    parse_openmetrics,
    render_snapshot_openmetrics,
    snapshots_to_openmetrics,
)
from repro.obs.export import (
    escape_label_value,
    mangle_label_name,
    mangle_metric_name,
)


def _registry():
    reg = MetricsRegistry()
    reg.counter("sim.requests", scheme="sp-cache").inc(10)
    reg.counter("sim.requests", scheme="ec-cache").inc(4)
    reg.gauge("slo.budget_remaining", objective="p99").set(0.75)
    h = reg.histogram("read.latency", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 5.0, 50.0):
        h.observe(v)
    return reg


class TestMangling:
    def test_metric_name_charset(self):
        assert mangle_metric_name("sim.requests") == "sim_requests"
        assert mangle_metric_name("a-b c%d") == "a_b_c_d"
        # Leading digit gets prefixed to stay a valid identifier.
        assert mangle_metric_name("9lives")[0] != "9"

    def test_label_name_charset(self):
        assert mangle_label_name("worker-id") == "worker_id"

    def test_label_value_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"


class TestRenderOpenmetrics:
    """A live registry renders through its snapshot."""

    def test_exposition_is_parse_clean(self):
        text = render_snapshot_openmetrics(_registry().snapshot())
        families = parse_openmetrics(text)
        assert families["sim_requests"]["type"] == "unknown"
        assert families["slo_budget_remaining"]["type"] == "unknown"
        assert families["read_latency"]["type"] == "summary"

    def test_counter_values_and_labels(self):
        text = render_snapshot_openmetrics(_registry().snapshot())
        assert 'sim_requests{scheme="sp-cache"} 10' in text
        assert 'sim_requests{scheme="ec-cache"} 4' in text
        assert "read_latency_count 4" in text
        assert text.endswith("# EOF\n")

    def test_prefix_filter(self):
        text = render_snapshot_openmetrics(_registry().snapshot("sim."))
        assert "sim_requests" in text
        assert "read_latency" not in text

    def test_weird_label_values_round_trip(self):
        reg = MetricsRegistry()
        weird = 'sp,cache="we\nird"\\'
        reg.counter("c", scheme=weird).inc(3)
        text = render_snapshot_openmetrics(reg.snapshot())
        (sample,) = parse_openmetrics(text)["c"]["samples"]
        _name, labels, value = sample
        assert labels["scheme"] == weird
        assert value == 3.0


class TestRenderSnapshot:
    def test_scalars_render_as_unknown(self):
        snap = {"sim.requests{scheme=sp-cache}": 42.0, "note": "skip me"}
        text = render_snapshot_openmetrics(snap)
        families = parse_openmetrics(text)
        assert families["sim_requests"]["type"] == "unknown"
        assert "note" not in text

    def test_histogram_dicts_render_as_summary(self):
        snap = {
            "read.latency": {
                "count": 4, "sum": 55.55, "p50": 0.5, "p95": 5.0, "p99": 50.0,
            }
        }
        families = parse_openmetrics(render_snapshot_openmetrics(snap))
        fam = families["read_latency"]
        assert fam["type"] == "summary"
        quantiles = {
            labels.get("quantile"): value
            for _name, labels, value in fam["samples"]
        }
        assert quantiles["0.5"] == 0.5 and quantiles["0.99"] == 50.0

    def test_extra_labels_land_on_every_sample(self):
        snap = {"sim.requests{scheme=sp-cache}": 1.0}
        text = render_snapshot_openmetrics(
            snap, extra_labels={"experiment": "fig13"}
        )
        assert 'experiment="fig13"' in text
        parse_openmetrics(text)

    def test_snapshots_to_openmetrics(self):
        snapshots = {
            "sp-cache": {
                "scheme": "sp-cache", "engine": "ps", "requests": 300,
                "imbalance_eta": 1.2,
            }
        }
        families = parse_openmetrics(snapshots_to_openmetrics(snapshots))
        (sample,) = families["sim_requests"]["samples"]
        _name, labels, value = sample
        assert labels == {"engine": "ps", "scheme": "sp-cache"}
        assert value == 300.0


class TestParseOpenmetrics:
    def test_missing_eof_rejected(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("# TYPE x counter\nx_total 1\n")

    @pytest.mark.parametrize(
        "line",
        [
            "not a metric line at all!",
            'x{bad labels} 1',
            "x one_point_five",
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ValueError):
            parse_openmetrics(f"# TYPE x unknown\n{line}\n# EOF\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="type"):
            parse_openmetrics("# TYPE x wat\n# EOF\n")
