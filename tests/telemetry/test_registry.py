"""Metrics registry semantics: counters, gauges, histograms, merge."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.registry import (
    DURATION_BUCKETS,
    MetricsRegistry,
    SIZE_BUCKETS,
    merge_snapshots,
    snapshot_diff,
    snapshot_is_empty,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("cells")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("cells")
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            counter.inc(-1)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.gauge("a")

    def test_thread_safety_no_lost_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("races")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestGauge:
    def test_set_and_inc(self):
        gauge = MetricsRegistry().gauge("util")
        gauge.set(0.5)
        assert gauge.value == 0.5
        gauge.inc(0.25)
        assert gauge.value == 0.75

    def test_merge_is_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("util").set(0.2)
        registry.merge({"gauges": {"util": 0.9}})
        assert registry.gauge("util").value == 0.9


class TestHistogram:
    def test_bucket_assignment_inclusive_upper_edge(self):
        hist = MetricsRegistry().histogram("sizes", bounds=(1, 2, 4))
        for value in (0.5, 1, 1.5, 2, 3, 4, 100):
            hist.observe(value)
        # buckets: <=1, <=2, <=4, overflow
        assert hist.counts == [2, 2, 2, 1]
        assert hist.count == 7
        assert hist.sum == pytest.approx(0.5 + 1 + 1.5 + 2 + 3 + 4 + 100)
        assert hist.mean == pytest.approx(hist.sum / 7)

    def test_default_bounds_are_durations(self):
        hist = MetricsRegistry().histogram("seconds")
        assert hist.bounds == DURATION_BUCKETS

    def test_bounds_must_strictly_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            registry.histogram("bad", bounds=(1, 1, 2))
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            registry.histogram("bad2", bounds=())

    def test_size_buckets_cover_pool_group_sizes(self):
        assert SIZE_BUCKETS[0] == 1
        assert list(SIZE_BUCKETS) == sorted(SIZE_BUCKETS)


class TestSnapshotMerge:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("cells").inc(3)
        registry.gauge("util").set(0.5)
        hist = registry.histogram("sizes", bounds=(1, 2))
        hist.observe(1)
        hist.observe(5)
        return registry

    def test_snapshot_is_json_shaped(self):
        snap = self._populated().snapshot()
        assert snap["counters"] == {"cells": 3}
        assert snap["gauges"] == {"util": 0.5}
        assert snap["histograms"]["sizes"] == {
            "bounds": [1.0, 2.0],
            "counts": [1, 0, 1],
            "sum": 6.0,
            "count": 2,
        }

    def test_snapshot_is_a_copy(self):
        registry = self._populated()
        snap = registry.snapshot()
        registry.counter("cells").inc()
        assert snap["counters"]["cells"] == 3

    def test_merge_adds_counters_and_buckets(self):
        registry = self._populated()
        registry.merge(self._populated().snapshot())
        snap = registry.snapshot()
        assert snap["counters"]["cells"] == 6
        assert snap["histograms"]["sizes"]["counts"] == [2, 0, 2]
        assert snap["histograms"]["sizes"]["sum"] == 12.0
        assert snap["gauges"]["util"] == 0.5

    def test_merge_boundary_mismatch_is_an_error(self):
        registry = self._populated()
        with pytest.raises(ConfigurationError, match="boundary mismatch"):
            registry.merge({"histograms": {"sizes": {
                "bounds": [10, 20], "counts": [0, 0, 1], "sum": 99.0,
                "count": 1,
            }}})

    def test_diff_isolates_activity_between_snapshots(self):
        registry = self._populated()
        before = registry.snapshot()
        registry.counter("cells").inc(2)
        registry.counter("fresh").inc()
        registry.histogram("sizes", bounds=(1, 2)).observe(2)
        diff = snapshot_diff(before, registry.snapshot())
        assert diff["counters"] == {"cells": 2, "fresh": 1}
        assert diff["histograms"]["sizes"]["counts"] == [0, 1, 0]
        assert diff["histograms"]["sizes"]["count"] == 1
        # untouched metrics are dropped entirely
        assert "util" in diff["gauges"]  # gauges report the after value

    def test_diff_of_identical_snapshots_is_empty(self):
        registry = MetricsRegistry()
        registry.counter("cells").inc(3)
        snap = registry.snapshot()
        diff = snapshot_diff(snap, snap)
        assert diff["counters"] == {}
        assert diff["histograms"] == {}

    def test_snapshot_is_empty_predicate(self):
        assert snapshot_is_empty(MetricsRegistry().snapshot())
        registry = MetricsRegistry()
        registry.counter("cells")  # created, never incremented
        assert snapshot_is_empty(registry.snapshot())
        registry.counter("cells").inc()
        assert not snapshot_is_empty(registry.snapshot())

    def test_merge_snapshots_pure_dict_roundtrip(self):
        a = self._populated().snapshot()
        b = self._populated().snapshot()
        merged = merge_snapshots(a, b)
        assert merged["counters"]["cells"] == 6
        assert merged["histograms"]["sizes"]["count"] == 4

    def test_reset_drops_everything(self):
        registry = self._populated()
        registry.reset()
        assert len(registry) == 0
        assert snapshot_is_empty(registry.snapshot())
