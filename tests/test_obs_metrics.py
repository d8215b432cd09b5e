"""Tests for the metrics core: registry semantics, sampler, JSONL export.

Everything here is driven by explicit simulated times — no wall clock —
so the assertions are exact, including the sample-and-hold back-fill
behaviour the engine's one-comparison hot-path guard relies on.
"""

import json

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Sampler,
    export_metrics_jsonl,
    make_sketch,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        counter = Counter("requests")
        counter.inc()
        counter.inc(4.0)
        assert counter.value == 5.0

    def test_counter_rejects_negative_increments(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter("requests").inc(-1.0)

    def test_gauge_is_last_write_wins(self):
        gauge = Gauge("queue_depth")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3.0


class TestHistogram:
    def test_observations_flow_to_the_sketch(self):
        histogram = Histogram("latency", make_sketch("exact"))
        for v in (1.0, 2.0, 3.0):
            histogram.observe(v)
        assert histogram.count == 3
        assert histogram.summary().max == 3.0

    def test_p2_backend_is_constant_memory(self):
        histogram = Histogram("latency", make_sketch("p2"))
        for v in range(1_000):
            histogram.observe(float(v))
        assert histogram.sketch.state_size < 100


class TestMetricRegistry:
    def test_get_or_create_returns_the_same_object(self):
        registry = MetricRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")

    def test_kind_mismatch_is_a_bug(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.attach_histogram("x", make_sketch("exact"))

    def test_attach_histogram_rejects_duplicates(self):
        registry = MetricRegistry()
        registry.attach_histogram("latency", make_sketch("exact"))
        with pytest.raises(ValueError, match="already registered"):
            registry.attach_histogram("latency", make_sketch("exact"))

    def test_attach_histogram_wraps_without_copying(self):
        registry = MetricRegistry()
        sketch = make_sketch("exact")
        sketch.add(0.5)
        histogram = registry.attach_histogram("latency", sketch)
        assert histogram.sketch is sketch
        assert histogram.count == 1

    def test_iteration_preserves_insertion_order(self):
        registry = MetricRegistry()
        registry.counter("first")
        registry.gauge("second")
        registry.attach_histogram("third", make_sketch("p2"))
        assert [m.name for m in registry] == ["first", "second", "third"]
        assert len(registry) == 3
        assert "second" in registry and "missing" not in registry

    def test_snapshot_rows_are_self_describing(self):
        registry = MetricRegistry()
        registry.counter("served").inc(10)
        registry.gauge("peak").set(4)
        registry.attach_histogram("latency", make_sketch("exact")).observe(0.01)
        rows = registry.snapshot()
        assert [row["kind"] for row in rows] == ["counter", "gauge", "histogram"]
        assert rows[0] == {"kind": "counter", "name": "served", "value": 10.0}
        assert rows[2]["backend"] == "exact"
        assert rows[2]["count"] == 1


class TestSampler:
    def test_interval_validated(self):
        with pytest.raises(ValueError, match="positive"):
            Sampler(interval_seconds=0.0)

    def test_back_fills_every_elapsed_tick_with_held_state(self):
        sampler = Sampler(interval_seconds=0.1)
        # Time jumps straight to 0.35: ticks 0.0/0.1/0.2/0.3 all record
        # the state that was in force while time advanced there.
        sampler.record(0.35, {"queue_depth": 2})
        assert [row["time"] for row in sampler.rows] == [0.0, 0.1, 0.2, 0.3]
        assert all(row["queue_depth"] == 2 for row in sampler.rows)
        assert sampler.next_time == pytest.approx(0.4)

    def test_no_tick_due_records_nothing(self):
        sampler = Sampler(interval_seconds=0.1)
        sampler.record(0.0, {"queue_depth": 0})  # tick 0.0 fires
        before = len(sampler)
        sampler.record(0.05, {"queue_depth": 9})  # between ticks: nothing
        assert len(sampler) == before

    def test_series_length_is_horizon_over_interval(self):
        sampler = Sampler(interval_seconds=0.25)
        for k in range(1, 9):
            sampler.record(k * 0.125, {"state": k})
        assert len(sampler) == 5  # ticks at 0.0 .. 1.0 inclusive


class TestExport:
    def test_jsonl_round_trip_samples_then_metrics(self, tmp_path):
        registry = MetricRegistry()
        registry.counter("served").inc(3)
        registry.attach_histogram("latency", make_sketch("exact")).observe(0.02)
        sampler = Sampler(interval_seconds=0.5)
        sampler.record(1.0, {"queue_depth": 1})
        path = export_metrics_jsonl(tmp_path / "out" / "m.jsonl", registry, sampler)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [row["kind"] for row in rows]
        assert kinds == ["sample", "sample", "sample", "counter", "histogram"]
        assert rows[0]["time"] == 0.0
        assert rows[-1]["p50"] == pytest.approx(0.02)

    def test_sampler_is_optional(self, tmp_path):
        registry = MetricRegistry()
        registry.gauge("final_instances").set(2)
        path = export_metrics_jsonl(tmp_path / "m.jsonl", registry)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [{"kind": "gauge", "name": "final_instances", "value": 2.0}]
