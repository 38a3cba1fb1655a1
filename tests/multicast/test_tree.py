"""Tests for multicast distribution trees of relaying endpoints."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, RetryExhaustedError
from repro.faults import FaultPlan
from repro.gpu import GTX280
from repro.multicast import MulticastTree, RelayNode, RelayUplink
from repro.multicast import tree as tree_module
from repro.p2p import distribution_tree, multicast_capacity
from repro.rlnc import CodingParams, Segment
from repro.streaming import MediaProfile
from repro.streaming.server import StreamingServer

PARAMS = CodingParams(8, 128)
PROFILE = MediaProfile(params=PARAMS)


def make_segment(seed=1):
    return Segment.random(PARAMS, np.random.default_rng(seed))


def make_root(segment, seed=0):
    root = StreamingServer(
        GTX280, PROFILE, rng=np.random.default_rng(seed)
    )
    root.publish(segment)
    return root


class TestTopology:
    def test_distribution_tree_shape_and_roles(self):
        graph = distribution_tree(2, 3)
        roles = dict(graph.nodes(data="role"))
        assert roles["source"] == "source"
        assert roles["relay0"] == roles["relay1"] == "relay"
        assert sum(1 for role in roles.values() if role == "leaf") == 6
        assert graph.has_edge("source", "relay1")
        assert graph.has_edge("relay0", "leaf0.2")

    def test_tree_shape_validated(self):
        with pytest.raises(ConfigurationError):
            distribution_tree(0, 2)
        with pytest.raises(ConfigurationError):
            distribution_tree(2, 0)
        with pytest.raises(ConfigurationError):
            MulticastTree(object(), PROFILE, relays=0)


class TestDistribution:
    def test_min_cut_is_computed_once_per_tree(self, monkeypatch):
        calls = []

        def counting(graph, source, sinks):
            calls.append(source)
            return multicast_capacity(graph, source, sinks)

        monkeypatch.setattr(tree_module, "multicast_capacity", counting)
        first, second = make_segment(1), make_segment(2)
        second = Segment(blocks=second.blocks, segment_id=1)
        root = make_root(first)
        root.publish(second)
        tree = MulticastTree(root, PROFILE, relays=2, leaves_per_relay=2)
        assert calls == []  # lazy: construction computes nothing
        reports = [tree.distribute(first), tree.distribute(second)]
        assert len(calls) == 1
        assert all(report.payload_ok for report in reports)
        assert reports[0].min_cut_bound == reports[1].min_cut_bound >= 1

    def test_lossless_tree_delivers_every_leaf(self):
        segment = make_segment()
        tree = MulticastTree(
            make_root(segment), PROFILE, relays=2, leaves_per_relay=2, seed=0
        )
        report = tree.distribute(segment)
        assert report.leaves_complete
        assert report.payload_ok
        assert report.leaves == 4
        assert report.blocks_recoded > 0
        assert set(report.relay_stats) == {"relay0", "relay1"}

    def test_rank_preserved_under_seeded_loss(self):
        # The headline robustness property: 30% loss on one uplink and
        # one leaf hop; the relays recode — never forward specific
        # blocks — so each hop's NACK loop restores full rank locally
        # and every leaf still decodes the exact payload.
        segment = make_segment()
        tree = MulticastTree(
            make_root(segment),
            PROFILE,
            relays=2,
            leaves_per_relay=3,
            seed=1,
            uplink_fault_plans={0: FaultPlan(seed=7, drop_rate=0.3)},
            leaf_fault_plans={(1, 0): FaultPlan(seed=8, drop_rate=0.3)},
        )
        report = tree.distribute(segment)
        assert report.payload_ok
        assert report.leaves == 6
        # Loss means retransmissions: the lossy cohorts recoded extra.
        assert report.blocks_recoded > PARAMS.num_blocks * 2

    def test_same_seed_trees_are_deterministic(self):
        segment = make_segment()
        reports = [
            MulticastTree(
                make_root(segment, seed=4),
                PROFILE,
                relays=2,
                leaves_per_relay=2,
                seed=9,
            ).distribute(segment)
            for _ in range(2)
        ]
        assert reports[0].rounds == reports[1].rounds
        assert reports[0].blocks_recoded == reports[1].blocks_recoded
        for name in reports[0].relay_stats:
            assert (
                reports[0].relay_stats[name].as_dict()
                == reports[1].relay_stats[name].as_dict()
            )

    def test_relay_root_feeds_a_nested_tree(self):
        # Any endpoint can be an interior node — including another
        # relay as the tree's root (publish seeds identity originals).
        segment = make_segment()
        root = RelayNode(PROFILE, rng=np.random.default_rng(3))
        root.publish(segment)
        report = MulticastTree(
            root, PROFILE, relays=1, leaves_per_relay=2, seed=2
        ).distribute(segment)
        assert report.payload_ok

    def test_round_budget_enforced(self):
        segment = make_segment()
        tree = MulticastTree(
            make_root(segment), PROFILE, relays=1, leaves_per_relay=1, seed=0
        )
        with pytest.raises(RetryExhaustedError, match="incomplete"):
            tree.distribute(segment, max_rounds=0)

    def test_min_cut_bound_reported(self):
        segment = make_segment()
        report = MulticastTree(
            make_root(segment), PROFILE, relays=2, leaves_per_relay=2, seed=0
        ).distribute(segment)
        assert report.min_cut_bound == 1


class TestRelayUplink:
    def test_uplink_tops_up_to_full_rank(self):
        segment = make_segment()
        root = make_root(segment)
        relay = RelayNode(PROFILE, rng=np.random.default_rng(1))
        uplink = RelayUplink(root, relay, 0)
        rounds = 0
        while relay.held(segment.segment_id) < PARAMS.num_blocks:
            uplink.pre_round(segment.segment_id)
            frames = root.serve_round(format="frames", version=2)
            uplink.intake(segment.segment_id, frames.get(0))
            rounds += 1
            assert rounds < 50
        assert relay.held(segment.segment_id) == PARAMS.num_blocks
        uplink.pre_round(segment.segment_id)  # saturated: no new ask
        assert root.pending_blocks == 0

    def test_damaged_frames_dropped_not_ingested(self):
        segment = make_segment()
        root = make_root(segment)
        relay = RelayNode(PROFILE, rng=np.random.default_rng(1))
        plan = FaultPlan(seed=3, corrupt_rate=1.0)
        uplink = RelayUplink(root, relay, 0, fault_plan=plan)
        uplink.pre_round(segment.segment_id)
        frames = root.serve_round(format="frames", version=2)
        served = len(bytes(frames[0])) // uplink._frame_bytes
        kept = uplink.intake(segment.segment_id, frames.get(0))
        # Every frame is accounted: damaged ones dropped and counted,
        # only verified ones buffered.  Seed 3 flips the checksum flag
        # of frame 1, which must be detected like any other damage.
        wire = uplink.wire
        assert wire.checksum_failures > 0
        assert wire.frames_ok == kept
        assert wire.frames_ok + wire.checksum_failures + wire.malformed == served
        assert wire.checksum_failures + wire.malformed == plan.counters.corrupted
        assert relay.held(segment.segment_id) == kept
        assert kept < served

    def test_empty_intake_is_a_no_op(self):
        relay = RelayNode(PROFILE, rng=np.random.default_rng(1))
        root = make_root(make_segment())
        uplink = RelayUplink(root, relay, 0)
        assert uplink.intake(0, None) == 0
        assert uplink.intake(0, b"") == 0
