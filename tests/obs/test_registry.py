"""Unit tests for the metrics registry."""

import json
import threading

import pytest

from repro.obs.registry import (
    UNDERFLOW_BUCKET,
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
    get_registry,
    merge_snapshots,
    quantile_from_buckets,
    set_registry,
)
from repro.obs.trace import get_tracer, trace, tracing


class TestBuckets:
    def test_power_of_two_buckets(self):
        assert bucket_index(1.0) == 0
        assert bucket_index(2.0) == 1
        assert bucket_index(3.9) == 1
        assert bucket_index(4.0) == 2
        assert bucket_index(0.5) == -1
        assert bucket_index(1024) == 10

    def test_non_positive_values_underflow(self):
        assert bucket_index(0.0) == UNDERFLOW_BUCKET
        assert bucket_index(-7.0) == UNDERFLOW_BUCKET
        assert bucket_index(float("nan")) == UNDERFLOW_BUCKET

    def test_bounds_cover_the_bucket(self):
        for value in (0.25, 1.0, 3.0, 100.0, 2.0**40):
            low, high = bucket_bounds(bucket_index(value))
            assert low <= value < high

    def test_underflow_bounds(self):
        low, high = bucket_bounds(UNDERFLOW_BUCKET)
        assert low == float("-inf")
        assert high == 0.0


class TestMetrics:
    def test_gauge_keeps_the_last_set_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        assert gauge.value == 0
        gauge.set(10)
        gauge.set(3)
        assert gauge.value == 3

    def test_histogram_tracks_count_sum_min_max(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in (1.0, 3.0, 8.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 12.0
        assert histogram.buckets() == {0: 1, 1: 1, 3: 1}

    def test_handles_are_memoized(self):
        registry = MetricsRegistry()
        assert registry.gauge("x") is registry.gauge("x")
        assert registry.histogram("x", a=1) is registry.histogram("x", a=1)
        assert registry.histogram("x", a=1) is not registry.histogram("x", a=2)
        assert registry.gauge("x", a=1, b=2) is registry.gauge("x", b=2, a=1)

    def test_labels_make_distinct_series(self):
        registry = MetricsRegistry()
        registry.gauge("served", scheme="table_5").set(3)
        registry.gauge("served", scheme="loop").set(4)
        registry.histogram("span_ns", span="wire_pack").observe(2.0)
        snapshot = registry.snapshot()
        assert snapshot["gauges"]['served{scheme="loop"}'] == 4
        assert snapshot["gauges"]['served{scheme="table_5"}'] == 3
        assert snapshot["histograms"]['span_ns{span="wire_pack"}']["count"] == 1
        assert snapshot["counters"] == {}


class TestRegistryLifecycle:
    def test_reset_zeroes_but_keeps_handles_live(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        histogram = registry.histogram("h")
        gauge.set(7)
        histogram.observe(2.0)
        registry.reset()
        assert gauge.value == 0
        assert histogram.count == 0
        histogram.observe(4.0)
        assert registry.snapshot()["histograms"]["h"]["count"] == 1

    def test_spans_traced_after_reset_reach_the_snapshot(self):
        """The tracer caches its ``span_ns`` handles; ``reset`` keeps them
        registered, so the next traced span still lands in the snapshot."""
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with tracing():
                with trace("before_reset"):
                    pass
                registry.reset()
                with trace("before_reset"):
                    pass
                with trace("after_reset"):
                    pass
        finally:
            set_registry(previous)
            get_tracer().clear()
        histograms = registry.snapshot()["histograms"]
        assert histograms['span_ns{span="before_reset"}']["count"] == 1
        assert histograms['span_ns{span="after_reset"}']["count"] == 1

    def test_set_registry_swaps_default(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestSnapshotsAndMerge:
    def make(self, *increments):
        """A component export's counters section, as ``series()`` builds."""
        counters = {}
        for name, amount in increments:
            counters[name] = counters.get(name, 0) + amount
        return {"counters": counters, "gauges": {}, "histograms": {}}

    def test_snapshot_is_json_round_trippable(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(9.0)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        merged = merge_snapshots(self.make(('c{peer="3"}', 2)), snapshot)
        assert json.loads(json.dumps(merged)) == merged

    def test_merge_adds_counters_and_histograms(self):
        left = self.make(("a", 1), ("b", 2))
        right = self.make(("b", 3), ("c", 4))
        merged = merge_snapshots(left, right)
        assert merged["counters"] == {"a": 1, "b": 5, "c": 4}

    def test_merge_is_right_biased_for_gauges(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3)
        left = registry.snapshot()
        registry.gauge("depth").set(9)
        right = registry.snapshot()
        assert merge_snapshots(left, right)["gauges"]["depth"] == 9
        assert merge_snapshots(right, left)["gauges"]["depth"] == 3

    def test_merge_histograms_preserves_count_sum_min_max(self):
        first = MetricsRegistry()
        first.histogram("h").observe(1.0)
        second = MetricsRegistry()
        second.histogram("h").observe(16.0)
        merged = merge_snapshots(first.snapshot(), second.snapshot())
        payload = merged["histograms"]["h"]
        assert payload["count"] == 2
        assert payload["sum"] == 17.0
        assert payload["min"] == 1.0
        assert payload["max"] == 16.0
        assert payload["buckets"] == {"0": 1, "4": 1}

    def test_concurrent_increments_never_lose_updates(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("hits")

        def worker():
            for _ in range(1000):
                histogram.observe(1.0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == 8000
        assert histogram.sum == 8000.0
        assert histogram.buckets() == {0: 8000}


class TestQuantileFromBuckets:
    def test_empty_distribution_is_zero(self):
        assert quantile_from_buckets({}, None, 0.99) == 0.0
        assert quantile_from_buckets({3: 0}, None, 0.5) == 0.0

    def test_single_bucket_interpolates_within_bounds(self):
        # 100 observations all in [4, 8): quantiles sweep the bucket.
        buckets = {2: 100}
        low = quantile_from_buckets(buckets, None, 0.01)
        mid = quantile_from_buckets(buckets, None, 0.5)
        high = quantile_from_buckets(buckets, None, 1.0)
        assert 4.0 <= low < mid < high <= 8.0

    def test_rank_walks_buckets_in_value_order(self):
        # 90 in [1, 2), 9 in [8, 16), 1 in [64, 128).
        buckets = {0: 90, 3: 9, 6: 1}
        assert 1.0 <= quantile_from_buckets(buckets, None, 0.5) < 2.0
        assert 8.0 <= quantile_from_buckets(buckets, None, 0.95) < 16.0
        assert 64.0 <= quantile_from_buckets(buckets, None, 1.0) <= 128.0

    def test_string_keys_from_snapshots_are_accepted(self):
        live = quantile_from_buckets({0: 90, 3: 10}, None, 0.99)
        snap = quantile_from_buckets({"0": 90, "3": 10}, None, 0.99)
        assert live == snap

    def test_rank_in_underflow_bucket_is_zero(self):
        buckets = {UNDERFLOW_BUCKET: 99, 4: 1}
        assert quantile_from_buckets(buckets, None, 0.5) == 0.0
        assert quantile_from_buckets(buckets, None, 1.0) >= 16.0

    def test_overstated_count_clamps_to_top_bucket(self):
        # A racy snapshot can report more observations than the bucket
        # map holds; the estimate clamps to the top bound, not crash.
        assert quantile_from_buckets({2: 5}, 1000, 0.99) == 8.0

    def test_rejects_out_of_range_quantile(self):
        with pytest.raises(ValueError):
            quantile_from_buckets({0: 1}, None, 1.5)

    def test_histogram_quantile_matches_free_function(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("delay")
        for value in (1.0, 1.5, 3.0, 5.0, 40.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == quantile_from_buckets(
            histogram.buckets(), 5, 0.5
        )
        assert histogram.quantile(1.0) >= 40.0

    def test_windowed_delta_sees_only_new_observations(self):
        # The load-harness trick: p99 over a window = quantile of the
        # positive delta between two cumulative bucket snapshots.
        registry = MetricsRegistry()
        histogram = registry.histogram("delay")
        for _ in range(1000):
            histogram.observe(1.0)
        before = histogram.buckets()
        for _ in range(10):
            histogram.observe(100.0)
        window = {
            index: count - before.get(index, 0)
            for index, count in histogram.buckets().items()
            if count - before.get(index, 0) > 0
        }
        spike = quantile_from_buckets(window, None, 0.99)
        assert spike >= 64.0  # the calm history cannot mask the spike
        cumulative = histogram.quantile(0.99)
        assert cumulative <= 2.0  # still inside the calm [1, 2) bucket
