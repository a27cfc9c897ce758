"""Registry semantics and histogram percentile accuracy."""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    parse_openmetrics,
    parse_snapshot_key,
    render_snapshot_key,
    render_snapshot_openmetrics,
    reset_registry,
    set_registry,
)
from repro.obs.metrics import SLOT_BLOCK, metric_key

from . import hist_oracle


class TestCounterGauge:
    def test_counter_accumulates(self):
        c = Counter("x", {})
        c.inc()
        c.inc(2.5)
        assert c.snapshot() == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("x", {}).inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge("x", {})
        g.set(7)
        g.set(3)
        g.inc(-1)
        assert g.snapshot() == 2.0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("sim.requests", scheme="sp-cache")
        b = reg.counter("sim.requests", scheme="sp-cache")
        assert a is b

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("m", scheme="x", server_id=1)
        b = reg.counter("m", server_id=1, scheme="x")
        assert a is b

    def test_labels_fan_out(self):
        reg = MetricsRegistry()
        reg.counter("m", scheme="a").inc()
        reg.counter("m", scheme="b").inc(2)
        assert len(reg) == 2
        snap = reg.snapshot()
        assert snap["m{scheme=a}"] == 1.0
        assert snap["m{scheme=b}"] == 2.0

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m", scheme="a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("m", scheme="a")

    def test_snapshot_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("sim.requests").inc()
        reg.counter("store.bytes_served").inc()
        assert list(reg.snapshot(prefix="store.")) == ["store.bytes_served"]

    def test_reset_between_tests(self):
        """The semantics the autouse fixture relies on: reset drops state
        from the *global* registry without replacing the object, so modules
        holding a reference via get_registry() start from zero."""
        reg = get_registry()
        reg.counter("sim.requests", scheme="x").inc(5)
        assert len(reg) == 1
        reset_registry()
        assert len(reg) == 0
        assert get_registry() is reg
        assert reg.counter("sim.requests", scheme="x").snapshot() == 0.0

    def test_set_registry_swaps_and_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            assert set_registry(previous) is fresh


class TestMetricKeys:
    def test_key_resolves_against_the_live_registry(self):
        key = metric_key("k.count", worker_id=3, op="get")
        first, second = MetricsRegistry(), MetricsRegistry()
        previous = set_registry(first)
        try:
            get_registry().counter_at(key).inc(2)
            set_registry(second)
            get_registry().counter_at(key).inc(5)
            assert first.counter("k.count", op="get", worker_id=3).value == 2
            assert second.snapshot() == {"k.count{op=get,worker_id=3}": 5.0}
            hist = get_registry().histogram_at(metric_key("k.size"), (1.0, 2.0))
            assert hist is second.histogram("k.size")
            assert hist.buckets == (1.0, 2.0)
        finally:
            set_registry(previous)

    def test_key_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.gauge("g")
        with pytest.raises(TypeError, match="already registered as Gauge"):
            reg.counter_at(metric_key("g"))
        with pytest.raises(TypeError, match="already registered as Gauge"):
            reg.histogram_at(metric_key("g"))


def _chunk(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).lognormal(size=n)


@st.composite
def _feeds(draw):
    """A reservoir size, a starting count and a mix of per-value and bulk
    observations large enough to draw several slot blocks."""
    size = draw(st.sampled_from([1, 16, 4096]))
    start = draw(st.sampled_from([0, 0, 2**32 - 700]))
    ops = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 3 * SLOT_BLOCK if size < 4096 else 3000),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return size, start, ops


class TestHistogramOracle:
    """Block-drawn slots against the per-value histogram they replaced."""

    @given(_feeds())
    @settings(max_examples=60, deadline=None)
    def test_mixed_feeds_match_oracle_exactly(self, feed):
        size, start, ops = feed
        new = Histogram("h", {}, reservoir_size=size, seed=7)
        old = hist_oracle.Histogram("h", {}, reservoir_size=size, seed=7)
        # A count past 2**32 on an empty reservoir: the slot bounds
        # cross into 64-bit draws.
        new.count = old.count = start
        for bulk, n, seed in ops:
            values = _chunk(seed, n)
            for h in (new, old):
                if bulk:
                    h.observe_many(values)
                else:
                    for v in values:
                        h.observe(v)
            assert new.count == old.count
        assert new.snapshot() == old.snapshot()
        assert np.array_equal(new.sample(), old.sample())
        assert new.bucket_counts == old.bucket_counts
        assert new.sum == old.sum

    @pytest.mark.parametrize("size", [1, 16, 4096])
    def test_per_value_tail_after_bulk_matches(self, size):
        """observe_many first uses up the slots observe drew ahead: bulk
        calls that start mid-block, then single values again."""
        new = Histogram("h", {}, reservoir_size=size, seed=3)
        old = hist_oracle.Histogram("h", {}, reservoir_size=size, seed=3)
        for h in (new, old):
            for v in _chunk(1, size + 40):
                h.observe(v)
            h.observe_many(_chunk(2, 10))
            h.observe_many(_chunk(3, 2 * SLOT_BLOCK))
            for v in _chunk(4, 300):
                h.observe(v)
        assert np.array_equal(new.sample(), old.sample())
        assert new.snapshot() == old.snapshot()


class TestHistogram:
    def test_bucket_counts_match_observe_many(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(0.05, size=500)
        one = Histogram("h", {})
        for v in values:
            one.observe(v)
        many = Histogram("h", {})
        many.observe_many(values)
        assert one.bucket_counts == many.bucket_counts
        assert one.count == many.count == 500
        assert one.sum == pytest.approx(many.sum)

    def test_percentiles_exact_within_reservoir(self):
        """Up to reservoir_size observations, percentiles reduce to
        np.percentile over every observation (the documented guarantee)."""
        rng = np.random.default_rng(1)
        values = rng.lognormal(size=1000)
        h = Histogram("h", {}, reservoir_size=4096)
        h.observe_many(values)
        for q in (50, 90, 95, 99):
            assert h.percentile(q) == pytest.approx(
                np.percentile(values, q), rel=1e-12
            )

    def test_percentiles_approximate_beyond_reservoir(self):
        rng = np.random.default_rng(2)
        values = rng.exponential(1.0, size=50_000)
        h = Histogram("h", {}, reservoir_size=2048)
        h.observe_many(values)
        assert h.count == 50_000
        # A 2048-point uniform sample pins mid percentiles within a few %.
        for q in (50, 95):
            assert h.percentile(q) == pytest.approx(
                np.percentile(values, q), rel=0.15
            )

    def test_observe_streaming_matches_bulk_reservoir_fill(self):
        values = np.arange(100, dtype=float)
        h = Histogram("h", {}, reservoir_size=256)
        h.observe_many(values)
        assert np.array_equal(h.sample(), values)

    def test_snapshot_fields(self):
        h = Histogram("h", {})
        h.observe_many(np.array([0.1, 0.2, 0.3, 0.4]))
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(1.0)
        assert snap["mean"] == pytest.approx(0.25)
        assert snap["p50"] == pytest.approx(0.25)

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError, match="no observations"):
            Histogram("h", {}).percentile(50)

    def test_needs_buckets(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", {}, buckets=())


# Label values stress the two serialization layers: the flat snapshot
# key (`name{k=v,...}`) and the OpenMetrics exposition.  Values holding
# the key syntax's own delimiters (`,` `=` `{` `}` `"` newline `\`) are
# exactly the ones that historically leaked through unescaped.
_label_values = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="\r"
    ),
    min_size=0,
    max_size=24,
)
_label_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
)


class TestSnapshotKeyRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(labels=st.dictionaries(_label_names, _label_values, max_size=3))
    def test_render_parse_round_trip(self, labels):
        key = render_snapshot_key("sim.requests", labels)
        name, parsed = parse_snapshot_key(key)
        assert name == "sim.requests"
        assert parsed == {k: str(v) for k, v in labels.items()}

    @settings(max_examples=100, deadline=None)
    @given(value=_label_values)
    def test_registry_snapshot_keys_parse_back(self, value):
        reg = MetricsRegistry()
        reg.counter("c", scheme=value).inc()
        (key,) = reg.snapshot()
        name, labels = parse_snapshot_key(key)
        assert name == "c"
        assert labels == {"scheme": value}

    @settings(max_examples=100, deadline=None)
    @given(value=_label_values.filter(lambda v: "\n" not in v))
    def test_openmetrics_round_trip(self, value):
        reg = MetricsRegistry()
        reg.counter("c", scheme=value).inc(2)
        text = render_snapshot_openmetrics(reg.snapshot())
        (sample,) = parse_openmetrics(text)["c"]["samples"]
        _name, labels, sample_value = sample
        assert labels == {"scheme": value}
        assert sample_value == 2.0

    @settings(max_examples=100, deadline=None)
    @given(value=st.sampled_from(
        ['a,b', 'a=b', 'a"b', "a\nb", "a\\b", "{x}", 'sp,cache="w"\\']
    ))
    def test_delimiter_values_round_trip_everywhere(self, value):
        key = render_snapshot_key("m", {"l": value})
        assert parse_snapshot_key(key) == ("m", {"l": value})
        reg = MetricsRegistry()
        reg.gauge("g", l=value).set(1.5)
        if "\n" not in value:
            text = render_snapshot_openmetrics(reg.snapshot())
            (sample,) = parse_openmetrics(text)["g"]["samples"]
            assert sample[1] == {"l": value}

    def test_plain_keys_stay_byte_identical(self):
        # Backward compatibility: unexotic labels must keep the exact
        # key spelling older manifests recorded.
        key = render_snapshot_key(
            "sim.requests", {"scheme": "sp-cache", "engine": "fifo"}
        )
        assert key == "sim.requests{engine=fifo,scheme=sp-cache}"

    def test_malformed_keys_raise(self):
        for bad in ("m{", "m{x}", "m{x=1", 'm{x="1}', "m{=1}"):
            with pytest.raises(ValueError):
                parse_snapshot_key(bad)
