"""Unit tests for histograms, quantiles and the snapshot merge."""

import json
import threading

import pytest

from repro.obs.registry import (
    UNDERFLOW_BUCKET,
    Histogram,
    bucket_bounds,
    bucket_index,
    merge_snapshots,
    quantile_from_buckets,
)
from repro.obs.trace import Tracer


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


def histogram_of(*values):
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


class TestMetrics:
    def test_histogram_tracks_count_sum_min_max(self):
        histogram = histogram_of(1.0, 3.0, 8.0)
        assert histogram.count == 3
        assert histogram.sum == 12.0
        assert histogram.buckets() == {0: 1, 1: 1, 3: 1}
        assert histogram.snapshot() == {
            "count": 3,
            "sum": 12.0,
            "min": 1.0,
            "max": 8.0,
            "buckets": {"0": 1, "1": 1, "3": 1},
        }
        assert Histogram().snapshot()["min"] is None

    @pytest.mark.parametrize(
        "groups", [[(5.0, 3)], [(0.0, 2), (7.0, 1), (24.0, 40), (7.0, 6)]]
    )
    def test_counted_observe_equals_single_calls(self, groups):
        grouped, single = Histogram(), Histogram()
        for value, count in groups:
            grouped.observe(value, count)
            for _ in range(count):
                single.observe(value)
        assert grouped.snapshot() == single.snapshot()
        assert grouped.quantile(0.99) == single.quantile(0.99)

    def test_labels_make_distinct_series(self):
        tracer = Tracer()
        tracer.enabled = True
        for name in ("wire_pack", "gpu_encode", "wire_pack"):
            with tracer_span(tracer, name):
                pass
        snapshot = tracer.snapshot()
        assert snapshot["histograms"]['span_ns{span="wire_pack"}']["count"] == 2
        assert snapshot["histograms"]['span_ns{span="gpu_encode"}']["count"] == 1
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}


def tracer_span(tracer, name):
    from repro.obs.trace import _Span

    return _Span(tracer, name, {})


class TestSnapshotsAndMerge:
    def make(self, *increments):
        """A component export's counters section, as ``series()`` builds."""
        counters = {}
        for name, amount in increments:
            counters[name] = counters.get(name, 0) + amount
        return {"counters": counters, "gauges": {}, "histograms": {}}

    def test_snapshot_is_json_round_trippable(self):
        snapshot = {
            "counters": {},
            "gauges": {"g": 1.5},
            "histograms": {"h": histogram_of(9.0).snapshot()},
        }
        assert json.loads(json.dumps(snapshot)) == snapshot
        merged = merge_snapshots(self.make(('c{peer="3"}', 2)), snapshot)
        assert json.loads(json.dumps(merged)) == merged

    def test_merge_adds_counters_and_histograms(self):
        left = self.make(("a", 1), ("b", 2))
        right = self.make(("b", 3), ("c", 4))
        merged = merge_snapshots(left, right)
        assert merged["counters"] == {"a": 1, "b": 5, "c": 4}

    def test_merge_is_right_biased_for_gauges(self):
        left = {"gauges": {"depth": 3.0}}
        right = {"gauges": {"depth": 9.0}}
        assert merge_snapshots(left, right)["gauges"]["depth"] == 9
        assert merge_snapshots(right, left)["gauges"]["depth"] == 3

    def test_merge_histograms_preserves_count_sum_min_max(self):
        first = {"histograms": {"h": histogram_of(1.0).snapshot()}}
        second = {"histograms": {"h": histogram_of(16.0).snapshot()}}
        merged = merge_snapshots(first, second)
        payload = merged["histograms"]["h"]
        assert payload["count"] == 2
        assert payload["sum"] == 17.0
        assert payload["min"] == 1.0
        assert payload["max"] == 16.0
        assert payload["buckets"] == {"0": 1, "4": 1}

    def test_concurrent_increments_never_lose_updates(self):
        histogram = Histogram()

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
        histogram = histogram_of(1.0, 1.5, 3.0, 5.0, 40.0)
        assert histogram.quantile(0.5) == quantile_from_buckets(
            histogram.buckets(), 5, 0.5
        )
        assert histogram.quantile(1.0) >= 40.0

    def test_windowed_delta_sees_only_new_observations(self):
        # The load-harness trick: p99 over a window = quantile of the
        # positive delta between two cumulative bucket snapshots.
        histogram = Histogram()
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
