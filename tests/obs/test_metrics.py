"""Counters, gauges, histograms and the registry."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounterAndGauge:
    def test_counter_inc_and_set(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        c.set(10)
        assert c.value == 10

    def test_gauge_last_write_wins(self):
        g = Gauge("x")
        g.set(4)
        g.set(2)
        assert g.value == 2.0
        g.inc(3)
        assert g.value == 5.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = Histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(value)
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        assert h.min == 0.05
        assert h.max == 50.0
        assert h.cumulative() == [
            (0.1, 1), (1.0, 3), (10.0, 4), (float("inf"), 5)
        ]

    def test_boundary_value_counts_as_le(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(1.0)
        assert h.cumulative() == [(1.0, 1), (float("inf"), 1)]


class TestRegistry:
    def test_create_on_first_use_and_reuse(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        reg.counter("a.b").inc()
        assert reg.value("a.b") == 2

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        reg.histogram("c")
        assert reg.names() == ["a", "b", "c"]

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(0.2)
        snap = reg.snapshot()
        assert snap["c"] == {"type": "counter", "value": 3}
        assert snap["g"] == {"type": "gauge", "value": 7.0}
        assert snap["h"]["type"] == "histogram"
        assert snap["h"]["count"] == 1
        assert snap["h"]["min"] == pytest.approx(0.2)

    def test_empty_histogram_snapshot_has_null_extremes(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        snap = reg.snapshot()["h"]
        assert snap["min"] is None and snap["max"] is None

    def test_absorb_merges_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.histogram("h").observe(0.1)
        b.histogram("h").observe(0.3)
        b.gauge("g").set(9)
        a.absorb(b)
        assert a.value("c") == 3
        assert a.histogram("h").count == 2
        assert a.gauge("g").value == 9.0

