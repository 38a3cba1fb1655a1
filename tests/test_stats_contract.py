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

import pytest

from repro.cluster import ClusterStats, SupervisorStats
from repro.multicast import RelayStats
from repro.p2p import DistributionStats
from repro.rlnc.wire import WireStats
from repro.streaming import ServerStats, SessionStats
from repro.workloads import LoadStats

STATS_TYPES = [
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
