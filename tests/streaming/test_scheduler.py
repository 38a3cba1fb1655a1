"""Tests for the EDF segment scheduler and the serving-round planner."""

import pytest

from repro.errors import ConfigurationError
from repro.rlnc import CodingParams
from repro.streaming import MediaProfile
from repro.streaming.scheduler import (
    BlockRequest,
    ServeRoundScheduler,
    SegmentScheduler,
)

PROFILE = MediaProfile(params=CodingParams(8, 1024), stream_bps=8 * 1024 * 8)
# segment duration = 8 KB / 8 KB/s = 1 s per segment


def make_scheduler(total=10, lookahead=4):
    return SegmentScheduler(PROFILE, total, lookahead=lookahead)


class TestGeometry:
    def test_segment_duration_assumption(self):
        assert PROFILE.segment_duration_seconds == pytest.approx(1.0)

    def test_playhead_segment(self):
        scheduler = make_scheduler()
        assert scheduler.playhead_segment(0.0) == 0
        assert scheduler.playhead_segment(2.5) == 2
        assert scheduler.playhead_segment(99.0) == 9  # clamped to last

    def test_deadlines_are_spaced_by_duration(self):
        scheduler = make_scheduler()
        assert scheduler.deadline(0, playback_start_s=10.0) == 10.0
        assert scheduler.deadline(3, playback_start_s=10.0) == 13.0

    def test_deadline_range_checked(self):
        with pytest.raises(ConfigurationError):
            make_scheduler().deadline(10, playback_start_s=0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SegmentScheduler(PROFILE, 0)
        with pytest.raises(ConfigurationError):
            SegmentScheduler(PROFILE, 5, lookahead=0)


class TestNextRequest:
    def test_requests_playhead_first(self):
        scheduler = make_scheduler()
        request = scheduler.next_request(
            now_s=0.0,
            playback_start_s=1.0,
            media_position_s=0.0,
            completed=set(),
            in_flight=set(),
            expected_fetch_s=0.5,
        )
        assert request.segment_index == 0
        assert request.slack_s == pytest.approx(0.5)
        assert not request.at_risk

    def test_skips_completed_and_in_flight(self):
        scheduler = make_scheduler()
        request = scheduler.next_request(
            now_s=0.0,
            playback_start_s=1.0,
            media_position_s=0.0,
            completed={0},
            in_flight={1},
            expected_fetch_s=0.1,
        )
        assert request.segment_index == 2

    def test_window_bounds_requests(self):
        scheduler = make_scheduler(lookahead=2)
        request = scheduler.next_request(
            now_s=0.0,
            playback_start_s=1.0,
            media_position_s=0.0,
            completed={0, 1},
            in_flight=set(),
            expected_fetch_s=0.1,
        )
        assert request is None  # window [0, 2) exhausted

    def test_window_advances_with_playhead(self):
        scheduler = make_scheduler(lookahead=2)
        request = scheduler.next_request(
            now_s=5.0,
            playback_start_s=1.0,
            media_position_s=4.2,  # playing segment 4
            completed={4},
            in_flight=set(),
            expected_fetch_s=0.1,
        )
        assert request.segment_index == 5

    def test_at_risk_flagged_when_fetch_exceeds_slack(self):
        scheduler = make_scheduler()
        request = scheduler.next_request(
            now_s=0.9,
            playback_start_s=1.0,
            media_position_s=0.0,
            completed=set(),
            in_flight=set(),
            expected_fetch_s=0.5,  # deadline 1.0, only 0.1 s left
        )
        assert request.at_risk
        assert request.slack_s == pytest.approx(-0.4)

    def test_all_buffered_returns_none(self):
        scheduler = make_scheduler(total=3, lookahead=5)
        request = scheduler.next_request(
            now_s=0.0,
            playback_start_s=0.0,
            media_position_s=0.0,
            completed={0, 1, 2},
            in_flight=set(),
            expected_fetch_s=0.1,
        )
        assert request is None


class TestConcurrencyBudget:
    def test_below_media_rate_has_no_budget(self):
        scheduler = make_scheduler()
        per_segment = PROFILE.stream_bytes_per_second * (
            1 + PROFILE.params.overhead_ratio
        )
        assert scheduler.concurrent_fetch_budget(per_segment * 0.9) == 0

    def test_budget_grows_with_bandwidth(self):
        scheduler = make_scheduler(lookahead=8)
        per_segment = PROFILE.stream_bytes_per_second * (
            1 + PROFILE.params.overhead_ratio
        )
        assert scheduler.concurrent_fetch_budget(per_segment * 1.0) == 1
        assert scheduler.concurrent_fetch_budget(per_segment * 3.5) == 3

    def test_budget_capped_by_lookahead(self):
        scheduler = make_scheduler(lookahead=2)
        per_segment = PROFILE.stream_bytes_per_second * (
            1 + PROFILE.params.overhead_ratio
        )
        assert scheduler.concurrent_fetch_budget(per_segment * 100) == 2

    def test_multi_segment_regime_reachable(self):
        """Fast downlinks put the receiver in the paper's multi-segment
        decoding regime (several segments in flight at once)."""
        scheduler = make_scheduler(lookahead=6)
        fast_link = 10e6 / 8  # 10 Mbps
        assert scheduler.concurrent_fetch_budget(fast_link) >= 2


class TestServeRoundScheduler:
    def test_requests_validate_counts(self):
        with pytest.raises(ConfigurationError):
            BlockRequest(peer_id=0, segment_id=0, num_blocks=0)
        with pytest.raises(ConfigurationError):
            ServeRoundScheduler(per_peer_quota=0)

    def test_coalesces_by_segment(self):
        scheduler = ServeRoundScheduler()
        plan = scheduler.plan_round(
            [
                BlockRequest(1, 0, 3),
                BlockRequest(2, 0, 5),
                BlockRequest(1, 7, 2),
            ]
        )
        assert plan.grants == {0: [(1, 3), (2, 5)], 7: [(1, 2)]}
        assert plan.carryover == []
        assert plan.total_blocks == 10
        assert plan.peers_served == {1, 2}

    def test_same_peer_segment_requests_merge(self):
        scheduler = ServeRoundScheduler()
        plan = scheduler.plan_round(
            [BlockRequest(1, 0, 3), BlockRequest(1, 0, 4)]
        )
        assert plan.grants == {0: [(1, 7)]}

    def test_quota_splits_requests_with_carryover(self):
        scheduler = ServeRoundScheduler(per_peer_quota=4)
        plan = scheduler.plan_round([BlockRequest(1, 0, 10)])
        assert plan.grants == {0: [(1, 4)]}
        assert plan.carryover == [BlockRequest(1, 0, 6)]

    def test_round_robin_contract_no_starvation(self):
        """Every peer with pending demand gets exactly min(pending, quota)
        per round, independent of how much other peers asked for."""
        quota = 4
        scheduler = ServeRoundScheduler(per_peer_quota=quota)
        demands = {1: 16, 2: 3, 3: 9}
        queue = [
            BlockRequest(peer, 0, amount) for peer, amount in demands.items()
        ]
        delivered = {peer: 0 for peer in demands}
        rounds = 0
        while queue:
            plan = scheduler.plan_round(queue)
            rounds += 1
            for allocations in plan.grants.values():
                for peer, count in allocations:
                    pending = demands[peer] - delivered[peer]
                    assert count == min(pending, quota)
                    delivered[peer] += count
            queue = plan.carryover
            assert rounds <= 10  # progress every round; never stalls
        assert delivered == demands
        assert rounds == 4  # ceil(16 / 4): bounded by the largest demand

    def test_carryover_preserves_queue_order(self):
        scheduler = ServeRoundScheduler(per_peer_quota=2)
        plan = scheduler.plan_round(
            [BlockRequest(1, 0, 5), BlockRequest(2, 0, 2), BlockRequest(1, 3, 4)]
        )
        # Peer 1's quota is used by its first request; the second request
        # carries over whole, after the remainder of the first.
        assert plan.carryover == [
            BlockRequest(1, 0, 3),
            BlockRequest(1, 3, 4),
        ]

    def test_unbounded_quota_grants_everything(self):
        scheduler = ServeRoundScheduler()
        queue = [BlockRequest(p, 0, 100) for p in range(8)]
        plan = scheduler.plan_round(queue)
        assert plan.total_blocks == 800
        assert plan.carryover == []


class TestRequestPriority:
    def test_higher_priority_planned_first_under_quota(self):
        """Priority reorders grant allocation but ties stay FIFO."""
        scheduler = ServeRoundScheduler(per_peer_quota=4)
        plan = scheduler.plan_round(
            [
                BlockRequest(1, 0, 4, priority=0),
                BlockRequest(1, 0, 4, priority=6),
            ]
        )
        # the high-priority request consumed the whole quota; the
        # low-priority one carries over in its original queue slot
        assert plan.grants[0] == [(1, 4)]
        assert plan.carryover == [BlockRequest(1, 0, 4, priority=0)]

    def test_default_priority_keeps_fifo(self):
        scheduler = ServeRoundScheduler(per_peer_quota=3)
        plan = scheduler.plan_round(
            [BlockRequest(1, 0, 2), BlockRequest(1, 1, 2)]
        )
        # FIFO: first request fully granted, second partially
        assert plan.grants[0] == [(1, 2)]
        assert plan.grants[1] == [(1, 1)]

    def test_carryover_order_ignores_priority(self):
        scheduler = ServeRoundScheduler(per_peer_quota=1)
        plan = scheduler.plan_round(
            [
                BlockRequest(1, 0, 3, priority=0),
                BlockRequest(1, 1, 3, priority=9),
            ]
        )
        # the priority-9 ask won the quota, but carryover keeps original
        # queue positions
        assert plan.carryover == [
            BlockRequest(1, 0, 3, priority=0),
            BlockRequest(1, 1, 2, priority=9),
        ]

    def test_priority_never_starves_other_peers(self):
        """The fairness contract survives priorities: a peer's grant
        still never depends on other peers' demand."""
        scheduler = ServeRoundScheduler(per_peer_quota=4)
        plan = scheduler.plan_round(
            [
                BlockRequest(1, 0, 4, priority=100),
                BlockRequest(2, 0, 4, priority=0),
            ]
        )
        assert dict(plan.grants[0]) == {1: 4, 2: 4}
