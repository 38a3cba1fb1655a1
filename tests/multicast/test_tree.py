"""Tests for multicast distribution trees of relaying endpoints."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, RetryExhaustedError
from repro.faults import FaultPlan
from repro.gpu import GTX280
from repro.multicast import MulticastTree, RelayNode, RelayUplink
from repro.multicast import tree as tree_module
from repro.p2p import distribution_tree, multicast_capacity
from repro.rlnc import BlockBatch, CodingParams, Encoder, Segment
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
        tree_module._min_cut_bound.cache_clear()
        first, second = make_segment(1), make_segment(2)
        second = Segment(blocks=second.blocks, segment_id=1)
        root = make_root(first)
        root.publish(second)
        trees = [
            MulticastTree(root, PROFILE, relays=2, leaves_per_relay=2, seed=seed)
            for seed in range(2)
        ]
        assert calls == []  # lazy: construction computes nothing
        reports = [trees[0].distribute(first), trees[1].distribute(second)]
        assert len(calls) == 1
        assert all(report.payload_ok for report in reports)
        assert reports[0].min_cut_bound == reports[1].min_cut_bound >= 1

    def test_relays_evict_each_distributed_segment(self):
        segments = [
            Segment(blocks=make_segment(seed).blocks, segment_id=seed)
            for seed in range(20)
        ]
        root = make_root(segments[0])
        for segment in segments[1:]:
            root.publish(segment)
        tree = MulticastTree(root, PROFILE, relays=2, leaves_per_relay=2)
        for segment in segments:
            assert tree.distribute(segment).payload_ok
            for relay in tree.relays:
                gauges = relay.stats_snapshot()["gauges"]
                assert gauges["relay_segments_buffered"] == 0
                assert gauges["relay_queue_blocks"] == 0

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

    def test_report_exports_each_uplinks_wire_damage(self):
        # Only relay1's uplink corrupts frames: the report names its
        # checksum failures under relay1 and a clean ledger for relay0.
        segment = make_segment()
        plan = FaultPlan(seed=4, corrupt_rate=0.3)
        tree = MulticastTree(
            make_root(segment),
            PROFILE,
            relays=2,
            leaves_per_relay=2,
            seed=1,
            uplink_fault_plans={1: plan},
        )
        report = tree.distribute(segment)
        assert report.payload_ok
        assert set(report.uplink_wire) == {"relay0", "relay1"}
        damaged = report.uplink_wire["relay1"]
        assert damaged.checksum_failures > 0
        assert damaged.checksum_failures + damaged.malformed == (
            plan.counters.corrupted
        )
        clean = report.uplink_wire["relay0"]
        assert clean.checksum_failures == clean.malformed == 0
        assert clean.frames_ok > 0
        # The report holds snapshots, not the live ledgers.
        assert damaged is not tree.uplinks[1].wire

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

    @pytest.mark.parametrize("n, k", [(8, 128), (32, 256)])
    def test_lossless_sweep_never_stalls(self, n, k):
        """Root coefficient seeds 0-59 on a lossless two-relay tree.

        Root seed 54 at (8, 128) and seed 1 at (32, 256) send a relay a
        dependent row; a relay topped up to n *buffered* rows then sat
        at rank n-1 and its leaves ran out of retries.  What reaches a
        relay depends only on the uplinks' asks, not on the leaves, so
        the same seeds stall with 1, 2, 4 or 8 leaves per relay; two
        keep the sweep short on the table path.
        """
        params = CodingParams(n, k)
        profile = MediaProfile(params=params)
        segment = Segment.random(params, np.random.default_rng(1000))
        for seed in range(60):
            root = StreamingServer(GTX280, profile, rng=np.random.default_rng(seed))
            root.publish(segment)
            tree = MulticastTree(root, profile, relays=2, leaves_per_relay=2)
            assert tree.distribute(segment).payload_ok, f"root seed {seed}"

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
        uplink.begin_segment(segment.segment_id)
        rounds = 0
        while relay.held(segment.segment_id) < PARAMS.num_blocks:
            uplink.pre_round()
            frames = root.serve_round(format="frames", version=2)
            uplink.intake(frames.get(0))
            rounds += 1
            assert rounds < 50
        assert relay.held(segment.segment_id) == PARAMS.num_blocks
        uplink.pre_round()  # saturated: no new ask
        assert root.pending_blocks == 0

    def test_damaged_frames_dropped_not_ingested(self):
        segment = make_segment()
        root = make_root(segment)
        relay = RelayNode(PROFILE, rng=np.random.default_rng(1))
        plan = FaultPlan(seed=3, corrupt_rate=1.0)
        uplink = RelayUplink(root, relay, 0, fault_plan=plan)
        uplink.begin_segment(segment.segment_id)
        uplink.pre_round()
        frames = root.serve_round(format="frames", version=2)
        served = len(bytes(frames[0])) // uplink._frame_bytes
        kept = uplink.intake(frames.get(0))
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

    def test_dependent_row_leaves_one_block_to_ask_for(self):
        segment = make_segment()
        root = make_root(segment)
        relay = RelayNode(PROFILE, rng=np.random.default_rng(1))
        uplink = RelayUplink(root, relay, 0)
        uplink.begin_segment(segment.segment_id)
        n = PARAMS.num_blocks
        coefficients, payloads = Encoder(
            segment, np.random.default_rng(2)
        ).encode_batch(n)
        coefficients[-1], payloads[-1] = coefficients[0], payloads[0]
        kept = relay.ingest(BlockBatch(coefficients=coefficients, payloads=payloads))
        assert kept == relay.held(segment.segment_id) == n - 1
        uplink.pre_round()
        assert root.pending_blocks == 1
        frames = root.serve_round(version=2)
        assert uplink.intake(frames.get(0)) == 1
        assert relay.held(segment.segment_id) == n
        uplink.pre_round()
        assert root.pending_blocks == 0

    def test_empty_intake_is_a_no_op(self):
        relay = RelayNode(PROFILE, rng=np.random.default_rng(1))
        root = make_root(make_segment())
        uplink = RelayUplink(root, relay, 0)
        uplink.begin_segment(0)
        assert uplink.intake(None) == 0
        assert uplink.intake(b"") == 0
