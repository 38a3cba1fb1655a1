"""Tests for the autoscaler's control loop and guards."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import Histogram
from repro.workloads import Autoscaler, AutoscalerConfig


class FakeCluster:
    """The duck-typed membership surface the autoscaler drives.

    Records every call so tests assert on actions, not side effects;
    ``add_worker``/``remove_worker`` return a moved-segments map like
    the real ring does.
    """

    def __init__(self, num_workers=2):
        self.ids = list(range(num_workers))
        self.calls = []

    @property
    def num_workers(self):
        return len(self.ids)

    @property
    def live_workers(self):
        return list(self.ids)

    def next_worker_id(self):
        return max(self.ids, default=-1) + 1

    def add_worker(self, worker_id):
        self.ids.append(worker_id)
        self.calls.append(("add", worker_id))
        return {0: worker_id, 1: worker_id}

    def remove_worker(self, worker_id):
        self.ids.remove(worker_id)
        self.calls.append(("remove", worker_id))
        return {2: min(self.ids)}


def make_scaler(cluster=None, **config_kwargs):
    delay = Histogram()
    config_kwargs.setdefault("sustain_rounds", 2)
    config_kwargs.setdefault("cooldown_rounds", 3)
    cluster = cluster or FakeCluster()
    scaler = Autoscaler(
        cluster, AutoscalerConfig(**config_kwargs), admission_delay=delay
    )
    return scaler, cluster, delay


class TestAutoscalerConfig:
    def test_defaults_validate(self):
        AutoscalerConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"low_watermark": 0.9, "high_watermark": 0.8},
            {"low_watermark": 0.0},
            {"max_delay_p99": 0.0},
            {"sustain_rounds": 0},
            {"cooldown_rounds": -1},
            {"min_workers": 0},  # the scale-to-zero guard
            {"min_workers": 8, "max_workers": 4},
        ],
    )
    def test_rejects_bad_thresholds(self, kwargs):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(**kwargs)


class TestControlLoop:
    def test_one_round_spike_is_noise(self):
        scaler, cluster, _ = make_scaler()
        assert scaler.step(0, 0.95) is None
        assert scaler.step(1, 0.5) is None
        assert cluster.calls == []
        assert scaler.stats.scale_ups == 0

    def test_sustained_overload_scales_up(self):
        scaler, cluster, _ = make_scaler()
        assert scaler.step(0, 0.95) is None
        event = scaler.step(1, 0.95)
        assert event is not None and event.action == "up"
        assert event.worker_id == 2 and event.moved_segments == 2
        assert cluster.calls == [("add", 2)]
        assert scaler.stats.scale_ups == 1

    def test_delay_p99_triggers_scale_up_at_low_utilization(self):
        scaler, cluster, delay = make_scaler(max_delay_p99=4.0)
        for round_index in range(2):
            for _ in range(100):
                delay.observe(16.0)
            event = scaler.step(round_index, 0.2)
        assert event is not None and event.action == "up"

    def test_delay_window_resets_each_step(self):
        scaler, _, delay = make_scaler()
        for _ in range(100):
            delay.observe(16.0)
        assert scaler.window_delay_p99() >= 16.0
        # No new observations: the next window must be empty, not
        # poisoned by the cumulative histogram's history.
        assert scaler.window_delay_p99() == 0.0

    def test_cooldown_holds_after_acting(self):
        scaler, cluster, _ = make_scaler(
            sustain_rounds=1, cooldown_rounds=3
        )
        assert scaler.step(0, 0.95).action == "up"
        for round_index in range(1, 4):
            assert scaler.step(round_index, 0.95) is None
        assert scaler.stats.holds_cooldown == 3
        assert scaler.step(4, 0.95).action == "up"
        assert [c for c, _ in cluster.calls] == ["add", "add"]

    def test_ceiling_holds_scale_up(self):
        scaler, cluster, _ = make_scaler(
            sustain_rounds=1, max_workers=2
        )
        assert scaler.step(0, 0.95) is None
        assert cluster.calls == []
        assert scaler.stats.holds_at_ceiling == 1

    def test_floor_holds_scale_down(self):
        scaler, cluster, _ = make_scaler(
            cluster=FakeCluster(num_workers=1),
            sustain_rounds=1,
            min_workers=1,
        )
        assert scaler.step(0, 0.1) is None
        assert cluster.calls == []
        assert cluster.num_workers == 1
        assert scaler.stats.holds_at_floor == 1

    def test_sustained_idle_retires_the_newest_worker(self):
        scaler, cluster, _ = make_scaler(
            cluster=FakeCluster(num_workers=3), sustain_rounds=2
        )
        assert scaler.step(0, 0.1) is None
        event = scaler.step(1, 0.1)
        assert event is not None and event.action == "down"
        assert event.worker_id == 2
        assert cluster.calls == [("remove", 2)]
        assert scaler.stats.scale_downs == 1

    def test_delay_backlog_beats_idle_utilization(self):
        # Low utilization normally means "shed a worker", but a queueing
        # backlog is the louder signal: the breach reads as overload and
        # the scaler grows, never shrinks, into it.
        scaler, cluster, delay = make_scaler(sustain_rounds=1)
        for _ in range(50):
            delay.observe(16.0)
        assert scaler.step(0, 0.1).action == "up"
        assert cluster.calls == [("add", 2)]

    def test_acting_resets_the_opposite_streak(self):
        scaler, cluster, _ = make_scaler(
            sustain_rounds=2, cooldown_rounds=0
        )
        scaler.step(0, 0.95)
        scaler.step(1, 0.95)
        assert cluster.calls == [("add", 2)]
        # Flip straight to idle: the streak must rebuild from zero.
        assert scaler.step(2, 0.1) is None
        assert scaler.step(3, 0.1).action == "down"

    def test_events_and_counters_account_exactly(self):
        scaler, cluster, _ = make_scaler(
            sustain_rounds=1, cooldown_rounds=0
        )
        scaler.step(0, 0.95)
        scaler.step(1, 0.95)
        scaler.step(2, 0.1)
        assert [event.action for event in scaler.events] == [
            "up",
            "up",
            "down",
        ]
        assert scaler.stats.scale_ups == 2
        assert scaler.stats.scale_downs == 1
        assert scaler.stats.decisions == 3
