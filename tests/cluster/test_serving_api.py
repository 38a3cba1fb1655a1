"""Tests for the unified repro.serving facade and the stats contract."""

import numpy as np
import pytest

import repro
from repro.errors import CapacityError, ConfigurationError
from repro.gpu import GTX280
from repro.rlnc import (
    VERSION,
    VERSION2,
    CodingParams,
    Segment,
    frame_sequence,
    unpack_blocks,
)
from repro.serving import (
    ClientSession,
    RelayNode,
    ServingCluster,
    ServingEndpoint,
    StreamingServer,
    drive_sessions,
)
from repro.streaming import MediaProfile, ServerStats, SessionStats
from repro.streaming.server import EagerRoundTicket
from tests.cluster.conftest import capped_workers

SMALL_PROFILE = MediaProfile(params=CodingParams(8, 64))


def make_segment(segment_id=0, seed=1):
    return Segment.random(
        SMALL_PROFILE.params, np.random.default_rng(seed), segment_id=segment_id
    )


def make_server():
    return StreamingServer(
        GTX280, SMALL_PROFILE, rng=np.random.default_rng(0)
    )


def make_cluster(num_workers=1):
    return ServingCluster(
        GTX280, SMALL_PROFILE, num_workers=num_workers, seed=0
    )


def make_relay():
    return RelayNode(SMALL_PROFILE, rng=np.random.default_rng(0))


#: Parallel clusters opened by the running test, closed after it.
_OPEN_CLUSTERS: list[ServingCluster] = []


def make_parallel_cluster():
    cluster = ServingCluster(
        GTX280,
        SMALL_PROFILE,
        num_workers=capped_workers(2),
        seed=0,
        parallel=True,
    )
    _OPEN_CLUSTERS.append(cluster)
    return cluster


@pytest.fixture(autouse=True)
def close_parallel_clusters():
    yield
    while _OPEN_CLUSTERS:
        _OPEN_CLUSTERS.pop().close()


ENDPOINT_FACTORIES = [
    make_server,
    make_cluster,
    make_relay,
    make_parallel_cluster,
]


class TestProtocol:
    def test_server_cluster_and_relay_implement_serving_endpoint(self):
        assert isinstance(make_server(), ServingEndpoint)
        assert isinstance(make_cluster(), ServingEndpoint)
        assert isinstance(make_relay(), ServingEndpoint)

    @pytest.mark.parametrize("factory", ENDPOINT_FACTORIES)
    def test_one_driver_serves_every_endpoint(self, factory):
        endpoint = factory()
        segment = make_segment(0)
        endpoint.publish(segment)
        sessions = [
            ClientSession(endpoint, peer_id) for peer_id in range(3)
        ]
        for session in sessions:
            session.begin_segment(0)
        drive_sessions(endpoint, sessions)
        for session in sessions:
            recovered = session.finish_segment()
            assert np.array_equal(recovered.blocks, segment.blocks)

    def test_connect_exposes_blocks_pending(self):
        for factory in ENDPOINT_FACTORIES:
            endpoint = factory()
            endpoint.publish(make_segment(0))
            view = endpoint.connect(5)
            assert view.blocks_pending == 0
            endpoint.request_blocks(5, 0, 3)
            assert view.blocks_pending == 3

    @pytest.mark.parametrize("factory", ENDPOINT_FACTORIES)
    def test_stats_snapshot_is_registry_shaped(self, factory):
        snapshot = factory().stats_snapshot()
        assert set(snapshot) >= {"counters", "gauges", "histograms"}


class TestEviction:
    @pytest.mark.parametrize("factory", ENDPOINT_FACTORIES)
    def test_evict_segment_drops_its_asks_and_keeps_serving(self, factory):
        endpoint = factory()
        endpoint.publish(make_segment(0, seed=1))
        endpoint.publish(make_segment(1, seed=2))
        view = endpoint.connect(1)
        endpoint.request_blocks(1, 0, 3)
        endpoint.request_blocks(1, 1, 2)
        assert view.blocks_pending == 5
        endpoint.evict_segment(0)
        assert view.blocks_pending == 2  # the evicted asks are refunded
        assert endpoint.pending_blocks == 2
        blocks = unpack_blocks(bytes(endpoint.serve_round(version=VERSION2)[1]))
        assert [block.segment_id for block in blocks] == [1, 1]
        assert view.blocks_pending == 0
        with pytest.raises(CapacityError):
            endpoint.request_blocks(1, 0, 1)
        endpoint.request_blocks(1, 1, 1)
        assert len(unpack_blocks(bytes(endpoint.serve_round()[1]))) == 1


class TestPipelinedRounds:
    @pytest.mark.parametrize("factory", ENDPOINT_FACTORIES)
    def test_begin_collect_matches_serve_round(self, factory):
        # Two identically-seeded endpoints: one driven by serve_round,
        # one by the split begin/collect pair — byte-identical frames.
        plain, split = factory(), factory()
        for endpoint in (plain, split):
            endpoint.publish(make_segment(0))
            endpoint.connect(1)
            endpoint.request_blocks(1, 0, 4)
        expected = plain.serve_round(format="frames", version=2)
        ticket = split.begin_round(format="frames", version=2)
        produced = split.collect_round(ticket)
        assert {p: bytes(f) for p, f in expected.items()} == {
            p: bytes(f) for p, f in produced.items()
        }

    @pytest.mark.parametrize("factory", ENDPOINT_FACTORIES)
    def test_ticket_cannot_be_collected_twice(self, factory):
        endpoint = factory()
        endpoint.publish(make_segment(0))
        endpoint.connect(1)
        endpoint.request_blocks(1, 0, 2)
        ticket = endpoint.begin_round()
        endpoint.collect_round(ticket)
        with pytest.raises(ConfigurationError, match="already collected"):
            endpoint.collect_round(ticket)

    @pytest.mark.parametrize("factory", [make_cluster, make_parallel_cluster])
    def test_cluster_allows_one_round_in_flight(self, factory):
        # Both substrates hold one round per worker until collected.
        cluster = factory()
        cluster.publish(make_segment(0))
        cluster.connect(1)
        cluster.request_blocks(1, 0, 2)
        ticket = cluster.begin_round()
        with pytest.raises(ConfigurationError, match="in flight"):
            cluster.begin_round()
        assert len(unpack_blocks(cluster.collect_round(ticket)[1])) == 2

    @pytest.mark.parametrize("factory", ENDPOINT_FACTORIES)
    def test_foreign_ticket_rejected(self, factory):
        endpoint = factory()
        with pytest.raises(ConfigurationError):
            endpoint.collect_round(object())

    def test_eager_ticket_is_shared_by_serial_endpoints(self):
        server, relay = make_server(), make_relay()
        for endpoint in (server, relay):
            endpoint.publish(make_segment(0))
            endpoint.connect(1)
            endpoint.request_blocks(1, 0, 2)
        assert isinstance(server.begin_round(), EagerRoundTicket)
        assert isinstance(relay.begin_round(), EagerRoundTicket)


class TestUnifiedServeRound:
    def test_deprecated_frames_shim_is_gone(self):
        # The one-release serve_round_frames grace period ended; the
        # unified spelling is the only wire entry point left.
        server = make_server()
        assert not hasattr(server, "serve_round_frames")

    def test_frames_format_serves_the_round(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        server.connect(1)
        server.request_blocks(1, 0, 4)
        frames = server.serve_round(format="frames")
        assert len(bytes(frames[1])) > 0

    def test_unknown_format_rejected(self):
        # Frames are the only round output of every endpoint; the
        # keyword stays only so callers spelling format="frames" work.
        for factory in ENDPOINT_FACTORIES:
            endpoint = factory()
            endpoint.publish(make_segment(0))
            endpoint.connect(1)
            endpoint.request_blocks(1, 0, 2)
            for format in ("batches", "blocks"):
                with pytest.raises(ConfigurationError, match="unknown serve_round"):
                    endpoint.serve_round(format=format)
                with pytest.raises(ConfigurationError, match="unknown serve_round"):
                    endpoint.begin_round(format=format)
            assert endpoint.pending_blocks == 2  # nothing was served


    @pytest.mark.parametrize("factory", [make_server, make_relay])
    def test_only_v2_rounds_advance_tx_sequence(self, factory):
        # The server and the relay share one round packer: v1 frames
        # carry no sequence, so only v2 rounds consume tx_sequence.
        endpoint = factory()
        endpoint.publish(make_segment(0))
        session = endpoint.connect(1)
        endpoint.request_blocks(1, 0, 2)
        endpoint.serve_round(version=VERSION)
        assert session.tx_sequence == 0
        endpoint.request_blocks(1, 0, 3)
        frames = endpoint.serve_round(version=VERSION2)
        assert session.tx_sequence == 3
        assert frame_sequence(bytes(frames[1])) == 0


class TestStatsContract:
    def test_server_stats_snapshot_delta_reset(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        server.connect(1)
        before = server.stats.snapshot()
        server.serve(1, 0, 4)
        delta = server.stats.delta(before)
        assert delta.blocks_served == 4
        assert delta.gpu_seconds > 0
        cleared = server.stats.reset()
        assert cleared.blocks_served == server.stats.blocks_served + 4
        assert server.stats.blocks_served == 0

    def test_session_stats_snapshot_delta_reset(self):
        server = make_server()
        segment = make_segment(0)
        server.publish_segment(segment)
        session = ClientSession(server, 1)
        before = session.stats.snapshot()
        session.fetch_segment(0)
        delta = session.stats.delta(before)
        assert delta.segments_completed == 1
        assert delta.wire.frames_ok > 0
        cleared = session.stats.reset()
        assert cleared.segments_completed == 1
        assert session.stats.segments_completed == 0
        assert session.stats.wire.frames_ok == 0

    def test_cluster_stats_snapshot_delta_reset(self):
        cluster = make_cluster(num_workers=2)
        cluster.publish(make_segment(0))
        cluster.connect(1)
        cluster.request_blocks(1, 0, 4)
        before = cluster.stats.snapshot()
        cluster.serve_round()
        delta = cluster.stats.delta(before)
        assert delta.rounds_served == 1
        assert delta.blocks_served == 4
        cleared = cluster.stats.reset()
        assert cleared.segments_published == 1
        assert cluster.stats.rounds_served == 0


class TestRootReexports:
    @pytest.mark.parametrize(
        "name",
        [
            "ClientSession",
            "ClusterStats",
            "MulticastTree",
            "OverlapReport",
            "RelayNode",
            "ServerStats",
            "ServingCluster",
            "ServingEndpoint",
            "SessionStats",
            "StreamingServer",
            "TimelineModel",
            "WorkerKillPlan",
            "compare_modes",
            "drive_sessions",
            "run_lockstep",
            "run_pipelined",
        ],
    )
    def test_serving_api_is_importable_from_the_root(self, name):
        assert hasattr(repro, name)
        assert name in repro.__all__

    def test_stats_classes_are_the_same_objects(self):
        assert repro.ServerStats is ServerStats
        assert repro.SessionStats is SessionStats
