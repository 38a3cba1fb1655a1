"""Contract audit: every stats object obeys snapshot()/delta()/reset().

The library-wide accounting rule is *explicit cumulative accumulation*:
counters only grow as work happens, ``snapshot()`` takes an independent
copy, ``delta(since)`` diffs against an earlier snapshot, and
``reset()`` zeroes in place while returning the values cleared.  One
parametrized audit over every stats dataclass keeps new stats types
from drifting off the contract (the wire-stats regression that
motivated it silently carried drop counters across unpack calls).
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.cluster import (
    ClusterStats,
    ServingCluster,
    SupervisorConfig,
    SupervisorStats,
    WorkerSupervisor,
)
from repro.gpu import GTX280
from repro.multicast import RelayNode, RelayStats
from repro.obs.stats import CumulativeStats
from repro.p2p import DistributionStats
from repro.rlnc import CodingParams
from repro.rlnc.wire import WireStats
from repro.streaming import MediaProfile, ServerStats, SessionStats, StreamingServer
from repro.workloads import AutoscalerStats, LoadStats

STATS_TYPES = [
    AutoscalerStats,
    ClusterStats,
    DistributionStats,
    LoadStats,
    RelayStats,
    ServerStats,
    SessionStats,
    SupervisorStats,
    WireStats,
]


def numeric_fields(stats_type):
    """The flat int/float counter fields (nested stats audit separately)."""
    return [
        f.name
        for f in dataclasses.fields(stats_type)
        if f.type in ("int", "float", int, float)
    ]


def bump(stats, amounts):
    for name, amount in amounts.items():
        setattr(stats, name, getattr(stats, name) + amount)


@pytest.mark.parametrize("stats_type", STATS_TYPES)
class TestStatsContract:
    def test_has_numeric_counters(self, stats_type):
        assert numeric_fields(stats_type), f"{stats_type.__name__} is empty"

    def test_counters_default_to_zero(self, stats_type):
        stats = stats_type()
        for name in numeric_fields(stats_type):
            assert getattr(stats, name) == 0

    def test_snapshot_is_an_independent_copy(self, stats_type):
        stats = stats_type()
        names = numeric_fields(stats_type)
        bump(stats, {name: i + 1 for i, name in enumerate(names)})
        snap = stats.snapshot()
        assert type(snap) is stats_type
        assert snap is not stats
        for i, name in enumerate(names):
            assert getattr(snap, name) == i + 1
        # Mutating the original must not touch the snapshot.
        bump(stats, {names[0]: 100})
        assert getattr(snap, names[0]) == 1

    def test_delta_diffs_against_an_earlier_snapshot(self, stats_type):
        stats = stats_type()
        names = numeric_fields(stats_type)
        bump(stats, {name: 5 for name in names})
        before = stats.snapshot()
        bump(stats, {name: i for i, name in enumerate(names)})
        delta = stats.delta(before)
        for i, name in enumerate(names):
            assert getattr(delta, name) == i

    def test_reset_zeroes_and_returns_cleared_values(self, stats_type):
        stats = stats_type()
        names = numeric_fields(stats_type)
        bump(stats, {name: i + 3 for i, name in enumerate(names)})
        cleared = stats.reset()
        for i, name in enumerate(names):
            assert getattr(cleared, name) == i + 3
            assert getattr(stats, name) == 0

    def test_nothing_resets_behind_the_callers_back(self, stats_type):
        # snapshot() and delta() are read-only on the live object.
        stats = stats_type()
        names = numeric_fields(stats_type)
        bump(stats, {name: 7 for name in names})
        stats.delta(stats.snapshot())
        for name in names:
            assert getattr(stats, name) == 7


class TestNestedWireStats:
    def test_session_stats_cascades_into_wire(self):
        stats = SessionStats()
        stats.wire.frames_ok += 4
        before = stats.snapshot()
        stats.wire.frames_ok += 2
        assert stats.delta(before).wire.frames_ok == 2
        cleared = stats.reset()
        assert cleared.wire.frames_ok == 6
        assert stats.wire.frames_ok == 0

    def test_as_dict_nests_the_wire_counters(self):
        stats = SessionStats(nacks=2)
        stats.wire.malformed += 1
        assert stats.as_dict()["nacks"] == 2
        assert stats.as_dict()["wire"] == WireStats(malformed=1).as_dict()


def exported_names(stats_type, prefix):
    """Every counter ``series(prefix)`` must carry: the numeric fields,
    and each nested stats field's own names under its field name."""
    names = {f"{prefix}_{name}" for name in numeric_fields(stats_type)}
    for f in dataclasses.fields(stats_type):
        nested = getattr(stats_type(), f.name)
        if isinstance(nested, CumulativeStats):
            names |= exported_names(type(nested), f"{prefix}_{f.name}")
    return names


@pytest.mark.parametrize("stats_type", STATS_TYPES)
class TestSeries:
    def test_exports_every_numeric_field(self, stats_type):
        stats = stats_type()
        series = stats.series("x")
        assert set(series) == {"counters", "gauges", "histograms"}
        assert set(series["counters"]) == exported_names(stats_type, "x")
        assert series["gauges"] == series["histograms"] == {}

    def test_values_follow_the_fields(self, stats_type):
        stats = stats_type()
        names = numeric_fields(stats_type)
        bump(stats, {name: i + 1 for i, name in enumerate(names)})
        counters = stats.series("x")["counters"]
        for i, name in enumerate(names):
            assert counters[f"x_{name}"] == float(i + 1)
            assert type(counters[f"x_{name}"]) is float


class TestNestedSeries:
    def test_session_wire_counters_nest_under_the_field_name(self):
        stats = SessionStats(nacks=2)
        stats.wire.malformed += 3
        counters = stats.series("client")["counters"]
        assert counters["client_nacks"] == 2.0
        assert counters["client_wire_malformed"] == 3.0
        assert counters["client_wire_frames_ok"] == 0.0


PROFILE = MediaProfile(params=CodingParams(4, 16))

SERVER_COUNTERS = {
    "server_blocks_served",
    "server_bytes_served",
    "server_encode_calls",
    "server_gpu_seconds",
    "server_requests_shed",
    "server_retry_later_responses",
    "server_rounds_served",
    "server_sessions_evicted",
    "server_upload_seconds",
}


class TestEndpointSnapshotKeys:
    """Each endpoint's snapshot keys, pinned: the stats fields as
    counters plus the gauges that read live state."""

    def test_server(self):
        snapshot = StreamingServer(GTX280, PROFILE).stats_snapshot()
        assert set(snapshot["counters"]) == SERVER_COUNTERS
        assert set(snapshot["gauges"]) == {
            "server_queue_blocks",
            "server_queue_depth",
            "server_segments_stored",
        }
        assert snapshot["histograms"] == {}

    def test_relay(self):
        snapshot = RelayNode(PROFILE).stats_snapshot()
        assert set(snapshot["counters"]) == {
            "relay_blocks_ingested",
            "relay_blocks_recoded",
            "relay_blocks_served",
            "relay_bytes_served",
            "relay_recode_calls",
            "relay_rounds_served",
            "relay_segments_published",
            "relay_sessions_evicted",
        }
        assert set(snapshot["gauges"]) == {
            "relay_queue_blocks",
            "relay_queue_depth",
            "relay_segments_buffered",
        }

    def test_cluster(self):
        snapshot = ServingCluster(GTX280, PROFILE, num_workers=2).stats_snapshot()
        worker_counters = {
            f'{name}{{worker="{w}"}}' for name in SERVER_COUNTERS for w in (0, 1)
        }
        assert set(snapshot["counters"]) == worker_counters | {
            "cluster_blocks_served",
            "cluster_gpu_parallel_seconds",
            "cluster_gpu_serial_seconds",
            "cluster_retry_later_responses",
            "cluster_rounds_served",
            "cluster_segments_published",
            "cluster_segments_rebalanced",
            "cluster_segments_withdrawn",
            "cluster_workers_added",
            "cluster_workers_killed",
            "cluster_workers_removed",
        }
        worker_gauges = {
            f'{name}{{worker="{w}"}}'
            for name in ("server_queue_blocks", "server_queue_depth",
                         "server_segments_stored")
            for w in (0, 1)
        }
        assert set(snapshot["gauges"]) == worker_gauges | {
            "cluster_live_workers",
            "cluster_parallel",
            "cluster_pending_blocks",
            "cluster_segments_placed",
        }

    def test_supervisor(self):
        unwatched = SimpleNamespace(live_workers=(), _workers={})
        series = WorkerSupervisor(unwatched, SupervisorConfig()).snapshot_series()
        assert set(series["counters"]) == {
            "supervisor_breaker_trips",
            "supervisor_crashes_detected",
            "supervisor_degraded_rounds",
            "supervisor_detection_seconds_total",
            "supervisor_failures_detected",
            "supervisor_hangs_detected",
            "supervisor_reconnected_sessions",
            "supervisor_recoveries",
            "supervisor_recovery_rounds_total",
            "supervisor_republished_segments",
            "supervisor_restart_failures",
            "supervisor_restarts",
            "supervisor_slow_evictions",
            "supervisor_slow_strikes",
            "supervisor_stale_ring_retries",
        }
        assert set(series["gauges"]) == {
            "supervisor_detection_seconds_avg",
            "supervisor_recovery_rounds_avg",
            "supervisor_workers_down",
        }
