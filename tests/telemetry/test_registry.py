"""Tests for the metrics registry (counters, gauges, histograms, labels)."""

import json

import pytest

from repro.telemetry import MetricError, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_accumulates(self, registry):
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_get_or_create_is_idempotent(self, registry):
        assert registry.counter("c") is registry.counter("c")

    def test_type_clash_rejected(self, registry):
        registry.counter("c")
        with pytest.raises(MetricError):
            registry.gauge("c")

    def test_label_clash_rejected(self, registry):
        registry.counter("c", labelnames=("a",))
        with pytest.raises(MetricError):
            registry.counter("c", labelnames=("b",))

    def test_labeled_children_independent(self, registry):
        family = registry.counter("c", labelnames=("kind",))
        family.labels("x").inc()
        family.labels("y").inc(4)
        assert family.labels("x").value == 1
        assert family.labels("y").value == 4
        assert family.labels(kind="x") is family.labels("x")

    def test_wrong_label_arity_rejected(self, registry):
        family = registry.counter("c", labelnames=("a", "b"))
        with pytest.raises(MetricError):
            family.labels("only-one")
        with pytest.raises(MetricError):
            family.labels(a="x")  # missing b


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13


class TestHistogram:
    def test_observe_updates_count_sum_mean(self, registry):
        hist = registry.histogram("h", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.sum == pytest.approx(5.55)
        assert hist.mean == pytest.approx(1.85)

    def test_bucket_counts_cumulative_in_snapshot(self, registry):
        hist = registry.histogram("h", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            hist.observe(v)
        buckets = registry.snapshot()["h"]["value"]["buckets"]
        assert buckets["le_0.1"] == 1
        assert buckets["le_1"] == 2
        assert buckets["inf"] == 3

    def test_empty_buckets_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=())

    def test_labeled_histogram_children(self, registry):
        family = registry.histogram("h", labelnames=("phase",),
                                    buckets=(1.0,))
        family.labels("a").observe(0.5)
        family.labels("a").observe(2.0)
        assert family.labels("a").count == 2
        assert family.labels("b").count == 0


class TestRegistry:
    def test_reset_zeroes_in_place(self, registry):
        counter = registry.counter("c", labelnames=("k",))
        child = counter.labels("x")
        child.inc(7)
        registry.reset()
        assert child.value == 0
        # The cached child object is still live and still registered.
        child.inc()
        assert registry.get("c").labels("x").value == 1

    def test_get_unknown_raises_with_inventory(self, registry):
        registry.counter("known")
        with pytest.raises(KeyError, match="known"):
            registry.get("ghost")

    def test_contains_and_names(self, registry):
        registry.counter("b")
        registry.gauge("a")
        assert "a" in registry
        assert registry.names() == ["a", "b"]

    def test_write_json_round_trips(self, registry, tmp_path):
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        data = json.loads(path.read_text())
        assert data["c"] == {"kind": "counter", "value": 3}
        assert data["g"]["value"] == 1.5
