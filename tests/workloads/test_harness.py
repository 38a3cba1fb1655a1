"""Tests for the load harness: admission, shed storms, replay, stats."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.cluster import ServingCluster
from repro.errors import ConfigurationError, RetryLater
from repro.faults import ChurnPlan
from repro.gpu import GTX280
from repro.rlnc import CodingParams, Segment
from repro.streaming import MediaProfile
from repro.workloads import (
    AdmissionController,
    AutoscalerConfig,
    FlashCrowd,
    LoadStats,
    run_loadtest,
)

#: Small geometry so cohort decodes are cheap; the modelled mass is
#: priced off the cost model and costs the same at any shape.
SMALL_PARAMS = CodingParams(num_blocks=8, block_size=256)


def small_loadtest(**kwargs):
    kwargs.setdefault("target_sessions", 2_000)
    kwargs.setdefault("rounds", 24)
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("params", SMALL_PARAMS)
    kwargs.setdefault("num_segments", 8)
    kwargs.setdefault("sample_peers", 2)
    kwargs.setdefault("initial_workers", 1)
    kwargs.setdefault(
        "autoscaler_config",
        AutoscalerConfig(
            max_workers=2, sustain_rounds=2, cooldown_rounds=3
        ),
    )
    return run_loadtest(**kwargs)


class TestAdmissionController:
    def test_fifo_order_and_delays(self):
        admission = AdmissionController()
        admission.offer(0, 3)
        admission.offer(1, 2)
        admitted, delays = admission.admit(4, slots=4)
        assert admitted == 4
        # Oldest cohort drains first; the round-1 group only partially.
        assert delays == [(4, 3), (3, 1)]
        assert admission.waiting == 1
        admitted, delays = admission.admit(5, slots=10)
        assert admitted == 1
        assert delays == [(4, 1)]
        assert admission.waiting == 0

    def test_zero_slots_admits_nobody(self):
        admission = AdmissionController()
        admission.offer(0, 5)
        assert admission.admit(1, slots=0) == (0, [])
        assert admission.waiting == 5

    def test_shed_paces_every_waiter_without_dropping(self):
        admission = AdmissionController()
        admission.offer(0, 7)
        admission.admit(1, slots=3)
        shed = admission.shed()
        assert len(shed) == 4
        assert all(isinstance(r, RetryLater) for r in shed)
        # Shedding is an answer, not an eviction: everyone still queued.
        assert admission.waiting == 4

    def test_conservation(self):
        admission = AdmissionController()
        offered = 0
        admitted_total = 0
        for round_index in range(10):
            admission.offer(round_index, round_index * 3)
            offered += round_index * 3
            admitted, _ = admission.admit(round_index, slots=7)
            admitted_total += admitted
        assert offered == admitted_total + admission.waiting


class TestLoadStatsContract:
    def test_snapshot_delta_reset(self):
        stats = LoadStats()
        stats.arrivals += 10
        stats.admitted += 7
        first = stats.snapshot()
        stats.arrivals += 5
        delta = stats.delta(first)
        assert delta.arrivals == 5 and delta.admitted == 0
        cleared = stats.reset()
        assert cleared.arrivals == 15
        assert stats.arrivals == 0 and stats.as_dict()["admitted"] == 0

    def test_deltas_sum_to_cumulative_snapshot(self):
        stats = LoadStats()
        zero = stats.snapshot()
        checkpoints = []
        for phase in range(3):
            stats.arrivals += 10 * (phase + 1)
            stats.shed_responses += phase
            checkpoints.append(stats.snapshot())
        total = stats.delta(zero)
        summed = LoadStats()
        previous = zero
        for checkpoint in checkpoints:
            delta = checkpoint.delta(previous)
            for field in dataclasses.fields(LoadStats):
                setattr(
                    summed,
                    field.name,
                    getattr(summed, field.name)
                    + getattr(delta, field.name),
                )
            previous = checkpoint
        assert summed == total


class TestRunLoadtestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_sessions": 0},
            {"rounds": 0},
            {"mean_dwell_rounds": 0.0},
            {"round_seconds": 0.0},
            {"admit_headroom": 0.0},
            {"admit_headroom": 1.5},
            {"sample_peers": 0},
            {"initial_workers": 5},  # above the config's max_workers
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ConfigurationError):
            small_loadtest(**kwargs)


class TestRunLoadtest:
    def test_steady_state_is_byte_exact(self):
        report = small_loadtest()
        assert report.rounds == 24
        assert report.byte_exact
        assert report.verified_segments > 0
        assert report.mismatched_segments == 0
        assert report.exhausted_peers == ()
        assert report.peak_active_sessions > 0
        # Little's law holds the population near the target.
        assert report.peak_active_sessions < 2 * 2_000

    def test_arrivals_are_conserved(self):
        report = small_loadtest()
        stats = report.stats
        assert stats.arrivals == stats.admitted + report.waiting_at_end
        assert stats.rounds == report.rounds

    def test_flash_crowd_shed_storm_paces_never_drops(self):
        # One worker, hard ceiling one: a 20x flash crowd must overflow
        # capacity, shed with RetryLater pacing, and still end with
        # every arrival either admitted or queued — none dropped — and
        # the cohort byte-exact underneath the storm.
        report = small_loadtest(
            target_sessions=8_000,
            rounds=30,
            flash_crowds=(
                FlashCrowd(
                    start_round=8, duration_rounds=10, multiplier=20.0
                ),
            ),
            autoscaler_config=AutoscalerConfig(
                max_workers=1, sustain_rounds=2, cooldown_rounds=3
            ),
        )
        stats = report.stats
        assert stats.shed_responses > 0
        assert report.admission_delay_p99 > 0.0
        assert stats.arrivals == stats.admitted + report.waiting_at_end
        assert report.scale_ups == 0  # the ceiling held
        assert report.byte_exact

    def test_flash_crowd_triggers_scale_up(self):
        report = small_loadtest(
            target_sessions=8_000,
            rounds=30,
            flash_crowds=(
                FlashCrowd(
                    start_round=8, duration_rounds=10, multiplier=20.0
                ),
            ),
        )
        assert report.scale_ups >= 1
        assert report.peak_workers == 2
        assert report.cluster_stats.workers_added >= 1
        assert report.byte_exact

    def test_churn_departs_and_flaps(self):
        report = small_loadtest(
            churn=ChurnPlan(seed=11, departure_rate=0.02, flap_rate=0.1)
        )
        assert report.stats.departures > 0
        assert report.stats.flaps > 0
        assert report.byte_exact

    def test_seeded_replay_is_deterministic(self):
        kwargs = dict(
            target_sessions=8_000,
            rounds=30,
            flash_crowds=(
                FlashCrowd(
                    start_round=8, duration_rounds=10, multiplier=20.0
                ),
            ),
            churn=ChurnPlan(seed=11, departure_rate=0.02, flap_rate=0.1),
        )
        first = small_loadtest(**kwargs)
        second = small_loadtest(**kwargs)
        skip = {"wall_seconds"}
        for field in dataclasses.fields(first):
            if field.name in skip:
                continue
            assert getattr(first, field.name) == getattr(
                second, field.name
            ), f"report field {field.name} diverged between replays"

    def test_pinned_flash_crowd_decisions(self):
        # 10^5 modelled sessions, one worker allowed to grow to two and
        # a 3x flash crowd at round 30: the delay quantiles and the
        # scale events this shape produced when the admission delays
        # were also mirrored into shared metric state, pinned so that
        # moving the histogram cannot move a decision.
        report = run_loadtest(
            target_sessions=100_000,
            rounds=80,
            seed=11,
            sample_peers=4,
            initial_workers=1,
            autoscaler_config=AutoscalerConfig(max_workers=2),
            flash_crowds=(
                FlashCrowd(start_round=30, duration_rounds=15, multiplier=3.0),
            ),
        )
        assert report.stats.admitted == 118_361
        assert report.admission_delay_p50 == 24.55004515647701
        assert report.admission_delay_p99 == 63.20003381091247
        assert [(e.round_index, e.action) for e in report.events] == [(4, "up")]
        assert (report.scale_ups, report.scale_downs) == (1, 0)
        assert report.byte_exact


class TestClusterStatsAcrossAutoscale:
    def test_deltas_sum_to_cumulative_across_scale_events(self):
        # The cumulative contract under the exact sequence the
        # autoscaler produces: serve, grow, serve, shrink, serve.
        # Phase deltas must sum field-for-field to the lifetime totals.
        report = small_loadtest(
            target_sessions=8_000,
            rounds=30,
            flash_crowds=(
                FlashCrowd(
                    start_round=8, duration_rounds=10, multiplier=20.0
                ),
            ),
        )
        assert report.cluster_stats.workers_added >= 1

        profile = MediaProfile(params=SMALL_PARAMS)
        cluster = ServingCluster(GTX280, profile, num_workers=1, seed=3)
        try:
            zero = cluster.stats.snapshot()
            checkpoints = []
            for phase, action in enumerate(("grow", "shrink", "idle")):
                for segment_id in range(2):
                    cluster.publish(
                        Segment.random(
                            SMALL_PARAMS,
                            np.random.default_rng(phase * 10 + segment_id),
                            segment_id=phase * 2 + segment_id,
                        )
                    )
                cluster.connect(phase)
                cluster.request_blocks(phase, phase * 2, 4)
                cluster.serve_round()
                if action == "grow":
                    cluster.add_worker()
                elif action == "shrink":
                    cluster.remove_worker(max(cluster.live_workers))
                checkpoints.append(cluster.stats.snapshot())

            total = cluster.stats.delta(zero)
            summed = type(total)()
            previous = zero
            for checkpoint in checkpoints:
                delta = checkpoint.delta(previous)
                for field in dataclasses.fields(type(total)):
                    setattr(
                        summed,
                        field.name,
                        getattr(summed, field.name)
                        + getattr(delta, field.name),
                    )
                previous = checkpoint
            assert summed == total
            assert total.workers_added == 1
            assert total.workers_removed == 1
        finally:
            cluster.close()
