"""Tests for the functional streaming server."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.gpu import GTX280
from repro.rlnc import (
    CodingParams,
    ProgressiveDecoder,
    Segment,
    decode_stream,
    unpack_blocks,
)
from repro.streaming import MediaProfile, StreamingServer

SMALL_PROFILE = MediaProfile(params=CodingParams(8, 64))


def make_server(seed=0):
    return StreamingServer(
        GTX280, SMALL_PROFILE, rng=np.random.default_rng(seed)
    )


def make_segment(segment_id=0, seed=1):
    return Segment.random(
        SMALL_PROFILE.params, np.random.default_rng(seed), segment_id=segment_id
    )


class TestSegmentStore:
    def test_publish_and_count(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        server.publish_segment(make_segment(1, seed=2))
        assert server.stored_segments == 2
        assert server.stats_snapshot()["gauges"]["server_segments_stored"] == 2

    def test_geometry_mismatch_rejected(self):
        server = make_server()
        wrong = Segment.random(CodingParams(4, 64), np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            server.publish_segment(wrong)

    def test_eviction(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        server.evict_segment(0)
        assert server.stored_segments == 0
        server.connect(1)
        with pytest.raises(CapacityError):
            server.serve(1, 0, 4)

    def test_republish_same_segment_is_not_double_counted(self):
        server = make_server()
        segment = make_segment(0)
        server.publish_segment(segment)
        server.publish_segment(segment)
        assert server.stored_segments == 1


class TestServing:
    def test_served_blocks_decode(self):
        server = make_server()
        segment = make_segment(0)
        server.publish_segment(segment)
        server.connect(7)
        decoder = ProgressiveDecoder(SMALL_PROFILE.params)
        while not decoder.is_complete:
            for block in server.serve(7, 0, 4):
                if decoder.is_complete:
                    break
                decoder.consume(block)
        assert np.array_equal(decoder.recover_segment().blocks, segment.blocks)

    def test_unknown_peer_rejected(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        with pytest.raises(ConfigurationError):
            server.serve(99, 0, 1)

    def test_zero_blocks_rejected(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        server.connect(1)
        with pytest.raises(ConfigurationError):
            server.serve(1, 0, 0)

    def test_stats_accumulate(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        server.connect(1)
        server.serve(1, 0, 4)
        server.serve(1, 0, 4)
        assert server.stats.blocks_served == 8
        assert server.stats.bytes_served == 8 * 64
        assert server.stats.gpu_seconds > 0
        assert server.stats.effective_bandwidth > 0

    def test_session_progress(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        session = server.connect(1)
        server.serve(1, 0, 8)  # exactly n blocks
        assert session.segments_completed == 1
        assert session.next_segment == 1

    def test_upload_time_accounted(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        assert server.stats.upload_seconds > 0

    def test_blocks_carry_segment_id(self):
        server = make_server()
        server.publish_segment(make_segment(3))
        server.connect(1)
        blocks = server.serve(1, 3, 2)
        assert all(block.segment_id == 3 for block in blocks)


class TestBatchedRounds:
    def test_request_validation_matches_serve(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        with pytest.raises(ConfigurationError):
            server.request_blocks(99, 0, 1)  # unknown peer
        server.connect(1)
        with pytest.raises(ConfigurationError):
            server.request_blocks(1, 0, 0)
        with pytest.raises(CapacityError):
            server.request_blocks(1, 5, 1)  # segment not resident

    def test_empty_queue_round_is_a_noop(self):
        server = make_server()
        assert server.serve_round() == {}
        assert server.stats.rounds_served == 0

    def test_round_coalesces_to_one_encode_per_segment(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        for peer in range(6):
            server.connect(peer)
            server.request_blocks(peer, 0, 2)
        frames = server.serve_round()
        assert server.stats.encode_calls == 1  # six requests, one launch
        assert server.stats.blocks_served == 12
        assert set(frames) == set(range(6))
        for wire in frames.values():
            batch = unpack_blocks(wire)
            assert len(batch) == 2
            assert batch.segment_id == 0

    def test_round_blocks_decode(self):
        server = make_server()
        segment = make_segment(0)
        server.publish_segment(segment)
        decoder = ProgressiveDecoder(SMALL_PROFILE.params)
        server.connect(3)
        while not decoder.is_complete:
            server.request_blocks(3, 0, 4)
            decoder.consume_batch(unpack_blocks(server.serve_round()[3]))
        assert np.array_equal(decoder.recover_segment().blocks, segment.blocks)

    def test_fanout_rows_are_views_not_copies(self):
        """Two peers' frames are slices of one wire slot, not copies."""
        server = make_server()
        server.publish_segment(make_segment(0))
        server.connect(1)
        server.connect(2)
        server.request_blocks(1, 0, 3)
        server.request_blocks(2, 0, 3)
        frames = server.serve_round()
        first, second = frames[1], frames[2]
        assert first.obj is second.obj
        slot = np.frombuffer(first.obj, dtype=np.uint8)
        assert np.shares_memory(np.frombuffer(first, np.uint8), slot)
        assert np.shares_memory(np.frombuffer(second, np.uint8), slot)

    def test_quota_carries_over_between_rounds(self):
        server = StreamingServer(
            GTX280,
            SMALL_PROFILE,
            rng=np.random.default_rng(0),
            per_peer_round_quota=3,
        )
        server.publish_segment(make_segment(0))
        session = server.connect(1)
        server.request_blocks(1, 0, 8)
        assert session.blocks_pending == 8
        assert len(unpack_blocks(server.serve_round()[1])) == 3
        assert session.blocks_pending == 5
        assert len(unpack_blocks(server.serve_round()[1])) == 3
        assert len(unpack_blocks(server.serve_round()[1])) == 2
        assert server.serve_round() == {}
        assert session.blocks_received == 8
        assert session.blocks_requested == 8
        assert session.rounds_served == 3

    def test_multi_segment_round(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        server.publish_segment(make_segment(1, seed=2))
        server.connect(1)
        server.request_blocks(1, 0, 2)
        server.request_blocks(1, 1, 2)
        blocks = decode_stream(server.serve_round()[1])
        assert [block.segment_id for block in blocks] == [0, 0, 1, 1]
        assert server.stats.encode_calls == 2  # one per segment

    def test_eviction_drops_queued_requests(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        server.publish_segment(make_segment(1, seed=2))
        session = server.connect(1)
        server.request_blocks(1, 0, 4)
        server.request_blocks(1, 1, 4)
        server.evict_segment(0)
        assert server.pending_requests == 1
        assert session.blocks_pending == 4
        batch = unpack_blocks(server.serve_round()[1])
        assert (batch.segment_id, len(batch)) == (1, 4)

    def test_round_stats_match_per_block_totals(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        for peer in range(4):
            server.connect(peer)
            server.request_blocks(peer, 0, 2)
        server.serve_round()
        assert server.stats.blocks_served == 8
        assert server.stats.bytes_served == 8 * SMALL_PROFILE.params.block_size
        assert server.stats.gpu_seconds > 0
        assert server.stats.rounds_served == 1


class TestRoundWirePath:
    def test_frames_round_trip_through_wire(self):
        server = make_server()
        segment = make_segment(0)
        server.publish_segment(segment)
        for peer in (1, 2):
            server.connect(peer)
            server.request_blocks(peer, 0, 8)
        frames = server.serve_round(format="frames")
        for peer in (1, 2):
            batch = unpack_blocks(bytes(frames[peer]))
            assert len(batch) == 8
            decoder = ProgressiveDecoder(SMALL_PROFILE.params)
            decoder.consume_batch(batch)
            assert np.array_equal(
                decoder.recover_segment().blocks, segment.blocks
            )

    def test_frames_alias_one_reused_buffer(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        for peer in (1, 2):
            server.connect(peer)
            server.request_blocks(peer, 0, 2)
        frames = server.serve_round(format="frames")
        buffers = {id(view.obj) for view in frames.values()}
        assert len(buffers) == 1  # every peer's view slices one buffer

    def test_old_reader_parses_round_frames(self):
        """Per-record compatibility: the batched writer's bytes parse
        with the single-frame reader."""
        server = make_server()
        server.publish_segment(make_segment(0))
        server.connect(1)
        server.request_blocks(1, 0, 3)
        frames = server.serve_round(format="frames")
        blocks = decode_stream(bytes(frames[1]))
        assert len(blocks) == 3
        assert all(block.segment_id == 0 for block in blocks)


class TestRoundByteExactness:
    def test_round_payloads_match_per_block_path(self):
        """Batching must not change a single payload byte: re-encoding the
        round's coefficient rows through the per-request path yields
        identical payloads."""
        from repro.kernels import EncodeScheme, GpuEncoder

        server = make_server()
        segment = make_segment(0)
        server.publish_segment(segment)
        for peer in range(4):
            server.connect(peer)
            server.request_blocks(peer, 0, 4)
        frames = server.serve_round()

        baseline = GpuEncoder(GTX280, EncodeScheme.TABLE_5)
        baseline.upload_segment(segment)
        for wire in frames.values():
            batch = unpack_blocks(wire)
            for row in range(len(batch)):
                result = baseline.encode(
                    segment,
                    1,
                    np.random.default_rng(0),
                    coefficients=batch.coefficients[row : row + 1].copy(),
                )
                assert np.array_equal(result.payloads[0], batch.payloads[row])


class TestEvictionReleasesCache:
    def test_evict_segment_releases_log_cache(self):
        """Regression: eviction must release every server-side reference
        to the segment — neither the store nor the encoder may keep the
        segment or its block matrix alive."""
        import gc
        import weakref

        server = make_server()
        segment = make_segment(0)
        server.publish_segment(segment)
        segment_ref = weakref.ref(segment)
        blocks_ref = weakref.ref(segment.blocks)
        server.evict_segment(0)
        del segment
        gc.collect()
        assert segment_ref() is None, "segment leaked after eviction"
        assert blocks_ref() is None, "block matrix leaked after eviction"

    def test_session_eviction_mid_retry_gets_clean_capacity_error(self):
        """A session evicted between NACK retries must get a clean
        CapacityError on its next request — never a stale BlockBatch
        view of the previous round's buffer (extends the eviction-leak
        regression above to the session store)."""
        import gc
        import weakref

        from repro.errors import RetryExhaustedError
        from repro.faults import FaultPlan
        from repro.streaming import ClientSession

        server = make_server()
        segment = make_segment(0)
        server.publish_segment(segment)
        # 100% loss: the client absorbs nothing and will retry forever
        client = ClientSession(
            server,
            peer_id=7,
            fault_plan=FaultPlan(seed=1, drop_rate=1.0),
            max_retries=50,
        )
        client.begin_segment(0)
        client.pre_round()
        frames = server.serve_round(format="frames", version=client.wire_version)
        batch_ref = weakref.ref(server._segments[0])
        client.intake(frames.get(7))
        assert not client.complete

        server.disconnect(7)  # eviction lands mid-retry
        with pytest.raises(CapacityError, match="evicted"):
            while True:
                client.pre_round()
                client.intake(None)
        assert server.stats.sessions_evicted == 1
        assert batch_ref() is not None  # the segment itself survives
        # reconnecting restores service cleanly
        server.connect(7)
        fresh = ClientSession(server, peer_id=7)
        recovered = fresh.fetch_segment(0)
        assert np.array_equal(recovered.blocks, segment.blocks)
        del recovered, fresh
        gc.collect()
        # avoid unused warnings
        assert isinstance(RetryExhaustedError, type)


class TestLoadShedding:
    def test_unbounded_queue_never_sheds(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        server.connect(1)
        for _ in range(100):
            assert server.request_blocks(1, 0, 8) is None
        assert server.stats.requests_shed == 0
        assert server.stats.retry_later_responses == 0

    def test_small_ask_sheds_largest_queued_request(self):
        from repro.errors import RetryLater

        server = StreamingServer(
            GTX280,
            SMALL_PROFILE,
            rng=np.random.default_rng(0),
            max_pending_blocks=10,
        )
        server.publish_segment(make_segment(0))
        bulk = server.connect(1)
        nacker = server.connect(2)
        assert server.request_blocks(1, 0, 8) is None
        # the 3-block NACK does not fit (8 + 3 > 10) but outranks the
        # 8-block bulk ask, which gets shed and refunded
        assert server.request_blocks(2, 0, 3) is None
        assert server.stats.requests_shed == 1
        assert bulk.blocks_pending == 0
        assert nacker.blocks_pending == 3
        assert server.pending_blocks == 3

        # a second bulk ask now gets RetryLater: its 8 blocks neither
        # fit nor outrank the queued work
        assert server.request_blocks(1, 0, 7) is None  # 3 + 7 <= 10 fits
        response = server.request_blocks(2, 0, 8)
        assert isinstance(response, RetryLater)
        assert response.retry_after_rounds >= 1
        assert server.stats.retry_later_responses == 1

    def test_nearly_complete_sessions_get_priority_in_rounds(self):
        """Under quota pressure the 2-block straggler is served in the
        first round even though it queued last."""
        server = StreamingServer(
            GTX280,
            SMALL_PROFILE,
            rng=np.random.default_rng(0),
            per_peer_round_quota=8,
        )
        server.publish_segment(make_segment(0))
        for peer in (1, 2):
            server.connect(peer)
        server.request_blocks(1, 0, 8)  # bulk, queued first
        server.request_blocks(2, 0, 2)  # straggler NACK, queued last
        frames = server.serve_round()
        assert len(unpack_blocks(frames[2])) == 2  # straggler fully served

    def test_shed_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingServer(
                GTX280,
                SMALL_PROFILE,
                rng=np.random.default_rng(0),
                max_pending_blocks=0,
            )


class TestDisconnect:
    def test_disconnect_drops_queued_requests(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        server.connect(1)
        server.connect(2)
        server.request_blocks(1, 0, 4)
        server.request_blocks(2, 0, 4)
        server.disconnect(1)
        assert server.pending_blocks == 4  # only peer 2 remains
        assert set(server.serve_round()) == {2}

    def test_disconnect_unknown_peer_rejected(self):
        server = make_server()
        with pytest.raises(ConfigurationError, match="not connected"):
            server.disconnect(42)

    def test_never_connected_still_configuration_error(self):
        """The evicted-session CapacityError must not leak to peers that
        simply never connected."""
        server = make_server()
        server.publish_segment(make_segment(0))
        with pytest.raises(ConfigurationError, match="not connected"):
            server.request_blocks(3, 0, 1)

    def test_reconnect_after_disconnect(self):
        server = make_server()
        server.publish_segment(make_segment(0))
        server.connect(1)
        server.disconnect(1)
        session = server.connect(1)
        assert server.request_blocks(1, 0, 2) is None
        assert session.blocks_pending == 2


class TestWireVersions:
    def test_v2_frames_carry_per_session_sequences(self):
        from repro.rlnc import VERSION2, unpack_frame

        server = make_server()
        server.publish_segment(make_segment(0))
        server.connect(1)
        server.request_blocks(1, 0, 2)
        first = bytes(server.serve_round(format="frames", version=VERSION2)[1])
        server.request_blocks(1, 0, 2)
        second = bytes(server.serve_round(format="frames", version=VERSION2)[1])

        sequences = []
        for data in (first, second):
            offset = 0
            while offset < len(data):
                _, size, sequence = unpack_frame(data, offset)
                sequences.append(sequence)
                offset += size
        assert sequences == [0, 1, 2, 3]  # monotonic across rounds
