"""Tests for the recoding RelayNode serving endpoint."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.multicast import RelayNode, RelayStats
from repro.rlnc import CodingParams, ProgressiveDecoder, Segment
from repro.rlnc.block import BlockBatch
from repro.rlnc.wire import (
    VERSION,
    VERSION2,
    frame_size,
    frame_worker_id,
    pack_blocks,
    stream_size,
    unpack_blocks,
    unpack_frame,
)
from repro.streaming.session import MediaProfile

PARAMS = CodingParams(8, 64)
PROFILE = MediaProfile(params=PARAMS)


def make_segment(segment_id=0, seed=1):
    return Segment.random(
        PARAMS, np.random.default_rng(seed), segment_id=segment_id
    )


def make_relay(seed=0, **kwargs):
    return RelayNode(PROFILE, rng=np.random.default_rng(seed), **kwargs)


def coded_batch(segment, count, seed=2):
    """Random coded blocks of a segment, as a relay would ingest them."""
    rng = np.random.default_rng(seed)
    from repro.rlnc import Encoder

    blocks = Encoder(segment, rng).encode_blocks(count)
    return BlockBatch(
        coefficients=np.stack([b.coefficients for b in blocks]),
        payloads=np.stack([b.payload for b in blocks]),
        segment_id=segment.segment_id,
    )


class TestBuffer:
    def test_publish_seeds_identity_originals(self):
        relay = make_relay()
        segment = make_segment()
        relay.publish(segment)
        assert relay.held(0) == PARAMS.num_blocks
        assert relay.stats.segments_published == 1
        assert relay.stats.blocks_ingested == PARAMS.num_blocks

    def test_publish_rejects_wrong_geometry(self):
        relay = make_relay()
        wrong = Segment.random(CodingParams(4, 64), np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="geometry"):
            relay.publish(wrong)

    def test_ingest_buffers_coded_blocks(self):
        relay = make_relay()
        segment = make_segment()
        kept = relay.ingest(coded_batch(segment, 5))
        assert kept == 5
        assert relay.held(0) == 5
        assert relay.held(99) == 0


class TestRequestValidation:
    def test_unknown_peer_rejected(self):
        relay = make_relay()
        relay.publish(make_segment())
        with pytest.raises(ConfigurationError, match="not connected"):
            relay.request_blocks(9, 0, 1)

    def test_evicted_peer_distinguished(self):
        relay = make_relay()
        relay.publish(make_segment())
        relay.connect(1)
        relay.disconnect(1)
        with pytest.raises(CapacityError, match="evicted"):
            relay.request_blocks(1, 0, 1)
        with pytest.raises(ConfigurationError):
            relay.disconnect(1)

    def test_empty_buffer_is_a_capacity_error(self):
        relay = make_relay()
        relay.connect(1)
        with pytest.raises(CapacityError, match="holds no blocks"):
            relay.request_blocks(1, 0, 1)

    def test_positive_counts_required(self):
        relay = make_relay()
        relay.publish(make_segment())
        relay.connect(1)
        with pytest.raises(ConfigurationError):
            relay.request_blocks(1, 0, 0)

    def test_disconnect_purges_queued_requests(self):
        relay = make_relay()
        relay.publish(make_segment())
        relay.connect(1)
        relay.connect(2)
        relay.request_blocks(1, 0, 3)
        relay.request_blocks(2, 0, 2)
        relay.disconnect(1)
        assert relay.pending_blocks == 2
        assert relay.stats.sessions_evicted == 1


class TestServeRound:
    def test_round_coalesces_one_recode_per_segment(self):
        relay = make_relay()
        relay.publish(make_segment())
        for peer in (1, 2, 3):
            relay.connect(peer)
            relay.request_blocks(peer, 0, 2)
        frames = relay.serve_round()
        assert set(frames) == {1, 2, 3}
        assert relay.stats.recode_calls == 1
        assert relay.stats.blocks_recoded == 6
        assert relay.pending_requests == 0

    def test_quota_carries_over(self):
        relay = make_relay(per_peer_round_quota=2)
        relay.publish(make_segment())
        relay.connect(1)
        relay.request_blocks(1, 0, 5)
        first = relay.serve_round()
        assert len(unpack_blocks(first[1])) == 2
        assert relay.pending_blocks == 3

    def test_recoded_blocks_from_full_buffer_decode(self):
        relay = make_relay()
        segment = make_segment()
        relay.publish(segment)
        relay.connect(1)
        relay.request_blocks(1, 0, PARAMS.num_blocks + 2)
        batch = unpack_blocks(relay.serve_round()[1])
        decoder = ProgressiveDecoder(PARAMS)
        for block in batch:
            if decoder.is_complete:
                break
            decoder.consume(block)
        assert decoder.is_complete
        recovered = decoder.recover_segment()
        assert np.array_equal(recovered.blocks, segment.blocks)

    def test_partial_buffer_preserves_rank(self):
        # The RLNC recoding argument: r buffered blocks yield emissions
        # of rank exactly r — no decode needed, no rank lost.
        relay = make_relay()
        segment = make_segment()
        relay.ingest(coded_batch(segment, 5))
        relay.connect(1)
        relay.request_blocks(1, 0, 12)
        batch = unpack_blocks(relay.serve_round()[1])
        decoder = ProgressiveDecoder(PARAMS)
        for block in batch:
            decoder.consume(block)
        assert decoder.rank == 5

    def test_same_seed_relays_emit_identical_rounds(self):
        outputs = []
        for _ in range(2):
            relay = make_relay(seed=7)
            relay.publish(make_segment())
            relay.connect(1)
            relay.request_blocks(1, 0, 4)
            frames = relay.serve_round(format="frames", version=2)
            outputs.append(bytes(frames[1]))
        assert outputs[0] == outputs[1]

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown serve_round"):
            make_relay().serve_round(format="blocks")


class TestWireFrames:
    def test_frames_carry_sequences_and_worker_stamp(self):
        relay = make_relay(worker_id=3)
        relay.publish(make_segment())
        relay.connect(1)
        relay.request_blocks(1, 0, 2)
        wire = bytes(relay.serve_round(format="frames", version=2)[1])
        size = frame_size(
            PARAMS.num_blocks, PARAMS.block_size, checksum=True, version=2
        )
        sequences = []
        for i in range(2):
            frame = wire[i * size : (i + 1) * size]
            block, _, sequence = unpack_frame(frame)
            assert block.segment_id == 0
            assert frame_worker_id(frame) == 3
            sequences.append(sequence)
        assert sequences == [0, 1]

    def test_double_buffer_keeps_previous_round_valid(self):
        relay = make_relay()
        relay.publish(make_segment())
        relay.connect(1)
        relay.request_blocks(1, 0, 2)
        first = relay.serve_round(format="frames", version=2)[1]
        first_copy = bytes(first)
        relay.request_blocks(1, 0, 2)
        relay.serve_round(format="frames", version=2)
        # One more round in flight: round r's view still reads intact.
        assert bytes(first) == first_copy


def reference_round_frames(relay, *, checksum, version):
    """The relay's own pack loop before it shared the server's round
    packer (``RelayNode._round_frames``), kept as the oracle.

    Packs the round's per-peer batches (each peer's grants, as row
    slices of ``relay._round_emissions()``, in grant order) into a fresh
    buffer one ``pack_blocks`` call per (peer, batch) and returns
    ``peer_id -> bytes``, stamping sequences and counting served bytes
    exactly as that loop did.
    """
    fanout = {}
    for emission, grants in relay._round_emissions():
        row = 0
        for peer_id, count in grants:
            fanout.setdefault(peer_id, []).append(
                emission.slice_rows(slice(row, row + count))
            )
            row += count
    if not fanout:
        return {}
    total = sum(
        stream_size(
            len(batch),
            batch.num_blocks,
            batch.block_size,
            checksum=checksum,
            version=version,
        )
        for batches in fanout.values()
        for batch in batches
    )
    view = memoryview(bytearray(total))
    offset = 0
    frames = {}
    stamp = relay.worker_id if version == VERSION2 else None
    for peer_id, batches in fanout.items():
        session = relay._sessions[peer_id]
        start = offset
        for batch in batches:
            sequence = session.tx_sequence if version == VERSION2 else 0
            packed = pack_blocks(
                batch,
                checksum=checksum,
                out=view,
                offset=offset,
                version=version,
                first_sequence=sequence,
                worker_id=stamp,
            )
            if version == VERSION2:
                session.tx_sequence += len(batch)
            offset += len(packed)
        frames[peer_id] = bytes(view[start:offset])
        relay.stats.bytes_served += offset - start
    return frames


class TestSharedPacker:
    @pytest.mark.parametrize("version", [VERSION, VERSION2])
    @pytest.mark.parametrize("checksum", [True, False])
    def test_frames_match_the_relay_pack_loop_oracle(self, version, checksum):
        # Multi-segment grants to several peers, over rounds that carry
        # quota leftovers, from two identically seeded relays.
        relays = [
            make_relay(seed=9, worker_id=5, per_peer_round_quota=5) for _ in range(2)
        ]
        for relay in relays:
            relay.publish(make_segment(0, seed=1))
            relay.publish(make_segment(1, seed=2))
            for peer, (first, second) in {1: (3, 4), 2: (6, 1), 3: (2, 2)}.items():
                relay.connect(peer)
                relay.request_blocks(peer, 0, first)
                relay.request_blocks(peer, 1, second)
        new, oracle = relays
        size = frame_size(
            PARAMS.num_blocks, PARAMS.block_size, checksum=checksum, version=version
        )
        for _ in range(3):
            served = new.serve_round(checksum=checksum, version=version)
            expected = reference_round_frames(
                oracle, checksum=checksum, version=version
            )
            assert {peer: bytes(f) for peer, f in served.items()} == expected
            assert new.stats == oracle.stats
            assert new.session_counters() == oracle.session_counters()
            assert new.stats.bytes_served == new.stats.blocks_served * size
        assert new.pending_blocks == oracle.pending_blocks == 0
        assert new.stats.blocks_served == 18


class TestStats:
    def test_stats_snapshot_registry_shape(self):
        relay = make_relay()
        relay.publish(make_segment())
        relay.connect(1)
        relay.request_blocks(1, 0, 2)
        relay.serve_round(format="frames", version=2)
        snapshot = relay.stats_snapshot()
        counters = snapshot["counters"]
        assert counters["relay_rounds_served"] == 1.0
        assert counters["relay_blocks_recoded"] == 2.0
        assert counters["relay_bytes_served"] > 0
        assert snapshot["gauges"]["relay_segments_buffered"] == 1.0

    def test_relay_stats_contract(self):
        stats = RelayStats(blocks_ingested=4)
        before = stats.snapshot()
        stats.blocks_ingested += 3
        assert stats.delta(before).blocks_ingested == 3
        cleared = stats.reset()
        assert cleared.blocks_ingested == 7
        assert stats.blocks_ingested == 0

    def test_session_counters_track_demand(self):
        relay = make_relay()
        relay.publish(make_segment())
        relay.connect(1)
        relay.request_blocks(1, 0, 3)
        assert relay.session_counters()[1] == (3, 0, 3)
        relay.serve_round()
        assert relay.session_counters()[1] == (3, 3, 0)
