"""Tests for the wire format, including corruption detection and fuzz."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError
from repro.rlnc import (
    CodedBlock,
    CodingParams,
    CorruptingChannel,
    Encoder,
    Segment,
    decode_frame,
    decode_stream,
    encode_frame,
    encode_stream,
    frame_size,
)


def make_block(n=8, k=16, seed=0, segment_id=3):
    rng = np.random.default_rng(seed)
    return CodedBlock(
        coefficients=rng.integers(0, 256, size=n, dtype=np.uint8),
        payload=rng.integers(0, 256, size=k, dtype=np.uint8),
        segment_id=segment_id,
    )


class TestRoundTrip:
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=128),
        st.integers(min_value=0, max_value=2**31),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_frame_round_trip(self, n, k, seed, checksum):
        block = make_block(n, k, seed)
        frame = encode_frame(block, checksum=checksum)
        assert len(frame) == frame_size(n, k, checksum=checksum)
        decoded = decode_frame(frame)
        assert decoded.segment_id == block.segment_id
        assert np.array_equal(decoded.coefficients, block.coefficients)
        assert np.array_equal(decoded.payload, block.payload)

    def test_stream_round_trip(self):
        blocks = [make_block(seed=i, segment_id=i) for i in range(5)]
        stream = encode_stream(blocks)
        decoded = decode_stream(stream)
        assert len(decoded) == 5
        for original, parsed in zip(blocks, decoded):
            assert parsed.segment_id == original.segment_id
            assert np.array_equal(parsed.payload, original.payload)

    def test_heterogeneous_stream(self):
        blocks = [make_block(4, 8, seed=1), make_block(16, 2, seed=2)]
        decoded = decode_stream(encode_stream(blocks))
        assert decoded[0].num_blocks == 4
        assert decoded[1].num_blocks == 16

    def test_empty_stream(self):
        assert decode_stream(b"") == []

    def test_end_to_end_through_wire(self):
        params = CodingParams(8, 32)
        rng = np.random.default_rng(9)
        segment = Segment.random(params, rng)
        stream = encode_stream(Encoder(segment, rng).encode_blocks(10))

        from repro.rlnc import ProgressiveDecoder

        decoder = ProgressiveDecoder(params)
        for block in decode_stream(stream):
            if decoder.is_complete:
                break
            decoder.consume(block)
        assert np.array_equal(decoder.recover_segment().blocks, segment.blocks)


class TestCorruptionDetection:
    def test_single_bit_flip_detected(self):
        frame = bytearray(encode_frame(make_block()))
        frame[25] ^= 0x04  # somewhere in the coefficients
        with pytest.raises(DecodingError, match="checksum"):
            decode_frame(bytes(frame))

    def test_every_payload_byte_is_protected(self):
        block = make_block(4, 8)
        clean = encode_frame(block)
        for position in range(len(clean) - 4):  # skip the CRC itself
            frame = bytearray(clean)
            frame[position] ^= 0xFF
            with pytest.raises(DecodingError):
                decode_frame(bytes(frame))

    def test_wire_checksum_closes_the_channel_integrity_gap(self):
        """A CorruptingChannel block is caught at frame decode instead of
        silently poisoning the decode."""
        block = make_block()
        channel = CorruptingChannel(1.0, np.random.default_rng(1))
        (corrupted,) = channel.transmit([block])
        frame = encode_frame(block)
        encode_frame(corrupted)  # re-framing the damage is checksummed anew
        # Re-framing the corrupted block produces a *valid* frame (the
        # sender would checksum it); the gap closes when the checksum is
        # computed before the channel:
        body_end = len(frame) - 4
        wire = bytearray(frame)
        wire[20] ^= 0x01  # corruption on the wire, after checksumming
        with pytest.raises(DecodingError):
            decode_frame(bytes(wire))
        assert body_end > 0  # silence unused warnings

    def test_unchecksummed_frame_accepts_corruption(self):
        frame = bytearray(encode_frame(make_block(), checksum=False))
        frame[25] ^= 0x04
        decoded = decode_frame(bytes(frame))  # no error: caller's choice
        assert decoded is not None


class TestMalformedFrames:
    def test_truncated_header(self):
        with pytest.raises(DecodingError):
            decode_frame(b"RL")

    def test_bad_magic(self):
        frame = bytearray(encode_frame(make_block()))
        frame[0] = ord("X")
        with pytest.raises(DecodingError, match="magic"):
            decode_frame(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(encode_frame(make_block()))
        frame[4] = 99
        with pytest.raises(DecodingError, match="version"):
            decode_frame(bytes(frame))

    def test_length_mismatch(self):
        frame = encode_frame(make_block())
        with pytest.raises(DecodingError, match="length"):
            decode_frame(frame + b"\x00")

    def test_torn_stream_raises(self):
        stream = encode_stream([make_block()])
        with pytest.raises(DecodingError):
            decode_stream(stream[:-3])

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_fuzz_never_crashes_only_raises(self, junk):
        """Arbitrary bytes either parse or raise DecodingError — never
        any other exception."""
        try:
            decode_stream(junk)
        except DecodingError:
            pass


def make_batch(m, n, k, seed=0, segment_id=3):
    from repro.rlnc import BlockBatch

    rng = np.random.default_rng(seed)
    return BlockBatch(
        coefficients=rng.integers(0, 256, size=(m, n), dtype=np.uint8),
        payloads=rng.integers(0, 256, size=(m, k), dtype=np.uint8),
        segment_id=segment_id,
    )


class TestBatchedWire:
    """The batched pack/unpack path against the single-block format."""

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=2**31),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_blocks_bytes_equal_concatenated_frames(
        self, m, n, k, seed, checksum
    ):
        """New writer, old format: the batch buffer is byte-identical to
        concatenating encode_frame over the rows, so old readers parse
        new writers' individual records."""
        from repro.rlnc import pack_blocks, stream_size

        batch = make_batch(m, n, k, seed)
        packed = pack_blocks(batch, checksum=checksum)
        legacy = b"".join(
            encode_frame(block, checksum=checksum) for block in batch.rows()
        )
        assert len(packed) == stream_size(m, n, k, checksum=checksum)
        assert bytes(packed) == legacy
        # Old reader: per-record parse of the new writer's buffer.
        parsed = decode_stream(bytes(packed))
        assert len(parsed) == m
        for row, block in enumerate(parsed):
            assert block.segment_id == batch.segment_id
            assert np.array_equal(block.coefficients, batch.coefficients[row])
            assert np.array_equal(block.payload, batch.payloads[row])

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=2**31),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_through_one_buffer(self, m, n, k, seed, checksum):
        """pack_blocks -> unpack_blocks round-trips byte-exactly."""
        from repro.rlnc import pack_blocks, unpack_blocks

        batch = make_batch(m, n, k, seed)
        recovered = unpack_blocks(bytes(pack_blocks(batch, checksum=checksum)))
        assert recovered.segment_id == batch.segment_id
        assert np.array_equal(recovered.coefficients, batch.coefficients)
        assert np.array_equal(recovered.payloads, batch.payloads)

    def test_unpack_accepts_old_writer_output(self):
        """Old writer, new reader: encode_stream output parses as a batch."""
        from repro.rlnc import unpack_blocks

        blocks = [make_block(8, 16, seed=i, segment_id=5) for i in range(4)]
        batch = unpack_blocks(encode_stream(blocks))
        assert len(batch) == 4
        for row, block in enumerate(blocks):
            assert np.array_equal(batch.coefficients[row], block.coefficients)
            assert np.array_equal(batch.payloads[row], block.payload)

    def test_unpack_views_are_zero_copy(self):
        from repro.rlnc import pack_blocks, unpack_blocks

        batch = make_batch(4, 8, 16)
        data = bytes(pack_blocks(batch))
        recovered = unpack_blocks(data)
        assert recovered.coefficients.base is not None
        assert recovered.payloads.base is not None
        copied = unpack_blocks(data, copy=True)
        assert copied.coefficients.base is None

    def test_pack_into_preallocated_buffer_with_offset(self):
        from repro.rlnc import pack_blocks, stream_size, unpack_blocks

        first = make_batch(2, 4, 8, seed=1, segment_id=0)
        second = make_batch(3, 4, 8, seed=2, segment_id=1)
        size_first = stream_size(2, 4, 8)
        size_second = stream_size(3, 4, 8)
        buffer = bytearray(size_first + size_second)
        pack_blocks(first, out=buffer)
        pack_blocks(second, out=buffer, offset=size_first)
        assert np.array_equal(
            unpack_blocks(bytes(buffer[:size_first])).payloads, first.payloads
        )
        assert np.array_equal(
            unpack_blocks(bytes(buffer[size_first:])).payloads, second.payloads
        )

    def test_pack_rejects_undersized_buffer(self):
        from repro.rlnc import pack_blocks

        batch = make_batch(2, 4, 8)
        with pytest.raises(DecodingError):
            pack_blocks(batch, out=bytearray(10))

    def test_unpack_rejects_heterogeneous_stream(self):
        from repro.rlnc import unpack_blocks

        # Same frame size, different segment ids: must be refused.
        a = encode_frame(make_block(4, 8, seed=1, segment_id=0))
        b = encode_frame(make_block(4, 8, seed=2, segment_id=1))
        with pytest.raises(DecodingError, match="heterogeneous"):
            unpack_blocks(a + b)

    def test_unpack_rejects_torn_stream(self):
        from repro.rlnc import pack_blocks, unpack_blocks

        data = bytes(pack_blocks(make_batch(2, 4, 8)))
        with pytest.raises(DecodingError):
            unpack_blocks(data[:-3])

    def test_unpack_rejects_empty_and_detects_corruption(self):
        from repro.rlnc import pack_blocks, unpack_blocks

        with pytest.raises(DecodingError):
            unpack_blocks(b"")
        data = bytearray(pack_blocks(make_batch(2, 4, 8)))
        data[-10] ^= 0xFF  # inside the second frame's payload
        with pytest.raises(DecodingError, match="checksum"):
            unpack_blocks(bytes(data))

    def test_pack_blocks_at_offset_matches_encode_frame(self):
        from repro.rlnc import BlockBatch, pack_blocks

        block = make_block(6, 12, seed=7)
        expected = encode_frame(block)
        buffer = bytearray(len(expected) + 8)
        batch = BlockBatch(
            block.coefficients.reshape(1, -1),
            block.payload.reshape(1, -1),
            block.segment_id,
        )
        written = pack_blocks(batch, out=buffer, offset=8)
        assert len(written) == len(expected)
        assert bytes(buffer[8:]) == expected


class TestWireStatsAccumulation:
    """Pin the explicit-accumulation contract of :class:`WireStats`.

    Regression: the lenient-mode drop counters are *cumulative* across
    however many unpack calls reuse one stats object — the unpack
    functions never zero them behind the caller's back.  Callers that
    want per-call figures snapshot-and-diff or reset between calls.
    """

    def _corrupt_stream(self, count=4, bad=2):
        blocks = [make_block(seed=i) for i in range(count)]
        stream = bytearray(encode_stream(blocks))
        size = frame_size(blocks[0].num_blocks, blocks[0].block_size)
        for frame in range(bad):
            # Flip a payload byte in the middle of frame `frame`.
            stream[frame * size + size // 2] ^= 0xFF
        return bytes(stream), count - bad, bad

    @staticmethod
    def _intake(stream, stats):
        """One lenient receive of ``stream`` (make_block's geometry)."""
        from repro.rlnc.wire import frame_rows, unpack_cohort

        frames = frame_rows(stream, frame_size(8, 16))
        unpack_cohort(
            frames, [len(frames)], [3], num_blocks=8, block_size=16, stats=[stats]
        )

    def test_counters_accumulate_across_reused_calls(self):
        from repro.rlnc.wire import WireStats

        stream, ok, bad = self._corrupt_stream()
        stats = WireStats()
        self._intake(stream, stats)
        assert (stats.frames_ok, stats.checksum_failures) == (ok, bad)
        # Second unpack with the SAME stats object: totals must add,
        # not restart — the documented cumulative contract.
        self._intake(stream, stats)
        assert (stats.frames_ok, stats.checksum_failures) == (2 * ok, 2 * bad)
        assert stats.frames_dropped == 2 * bad

    def test_snapshot_delta_isolates_one_call(self):
        from repro.rlnc.wire import WireStats

        stream, ok, bad = self._corrupt_stream()
        stats = WireStats()
        self._intake(stream, stats)
        before = stats.snapshot()
        self._intake(stream, stats)
        delta = stats.delta(before)
        assert (delta.frames_ok, delta.checksum_failures) == (ok, bad)
        # The snapshot is an independent copy, untouched by later calls.
        assert (before.frames_ok, before.checksum_failures) == (ok, bad)

    def test_reset_zeroes_and_returns_cleared_totals(self):
        from repro.rlnc.wire import WireStats

        stream, ok, bad = self._corrupt_stream()
        stats = WireStats()
        self._intake(stream, stats)
        cleared = stats.reset()
        assert (cleared.frames_ok, cleared.checksum_failures) == (ok, bad)
        assert (stats.frames_ok, stats.checksum_failures) == (0, 0)
        # After reset the next call reports fresh per-call counts.
        self._intake(stream, stats)
        assert (stats.frames_ok, stats.checksum_failures) == (ok, bad)

    def test_as_dict_and_merge_round_trip(self):
        from repro.rlnc.wire import WireStats

        left = WireStats(frames_ok=3, checksum_failures=1, malformed=2)
        right = WireStats(frames_ok=1, checksum_failures=4, malformed=0)
        left.merge(right)
        assert left.as_dict() == {
            "frames_ok": 4,
            "checksum_failures": 5,
            "malformed": 2,
        }

    def test_reused_client_session_decoder_counts_stay_cumulative(self):
        """The original bug's shape: a decoder session reused across
        unpack calls must expose exact cumulative drop counts."""
        from repro.rlnc.wire import (
            WireStats,
            frame_rows,
            pack_blocks,
            unpack_cohort,
        )

        batch = make_batch(6, 8, 16, seed=9)
        stream = bytearray(bytes(pack_blocks(batch)))
        size = frame_size(8, 16)
        stream[size + size // 2] ^= 0x55  # damage frame 1 of call one
        stats = WireStats()
        for _ in range(2):
            frames = frame_rows(bytes(stream), size)
            unpack_cohort(
                frames,
                [len(frames)],
                [batch.segment_id],
                num_blocks=8,
                block_size=16,
                stats=[stats],
            )
        assert stats.frames_ok == 10
        assert stats.checksum_failures == 2
        per_call = stats.delta(stats.snapshot())  # empty delta sanity
        assert per_call.frames_ok == 0
