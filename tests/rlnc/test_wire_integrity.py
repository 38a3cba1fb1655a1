"""Tests for the version-2 integrity wire format and lenient intake.

Covers the robustness contract: frames carry digests that detect every
single-bit flip; strict unpack raises :class:`IntegrityError`; lenient
unpack drops and counts damage in :class:`WireStats` without ever
accepting a corrupt frame; malformed inputs (truncation, lying length
fields) raise :class:`WireError` without over-reading; and both wire
versions interoperate with the PR 2 reader/writer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError, IntegrityError, WireError
from repro.rlnc import (
    VERSION2,
    BlockBatch,
    CodedBlock,
    WireStats,
    decode_frame,
    decode_stream,
    digest64,
    encode_frame,
    frame_rows,
    frame_size,
    pack_blocks,
    stream_size,
    unpack_blocks,
    unpack_frame,
    unpack_round,
)


def make_block(n=8, k=16, seed=0, segment_id=3):
    rng = np.random.default_rng(seed)
    return CodedBlock(
        coefficients=rng.integers(0, 256, size=n, dtype=np.uint8),
        payload=rng.integers(0, 256, size=k, dtype=np.uint8),
        segment_id=segment_id,
    )


def make_batch(m, n, k, seed=0, segment_id=3):
    rng = np.random.default_rng(seed)
    return BlockBatch(
        coefficients=rng.integers(0, 256, size=(m, n), dtype=np.uint8),
        payloads=rng.integers(0, 256, size=(m, k), dtype=np.uint8),
        segment_id=segment_id,
    )


class TestVersion2RoundTrip:
    @given(
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=1, max_value=96),
        st.integers(min_value=0, max_value=2**31),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_frame_round_trip(self, n, k, seed, checksum):
        block = make_block(n, k, seed)
        frame = encode_frame(
            block, checksum=checksum, version=VERSION2, sequence=77
        )
        assert len(frame) == frame_size(
            n, k, checksum=checksum, version=VERSION2
        )
        decoded, size, sequence = unpack_frame(frame)
        assert size == len(frame)
        assert sequence == 77
        assert np.array_equal(decoded.coefficients, block.coefficients)
        assert np.array_equal(decoded.payload, block.payload)

    def test_batch_round_trip_with_sequences(self):
        batch = make_batch(5, 8, 16)
        data = bytes(
            pack_blocks(batch, version=VERSION2, first_sequence=100)
        )
        recovered = unpack_blocks(data)
        assert np.array_equal(recovered.payloads, batch.payloads)
        offset = 0
        for expected_seq in range(100, 105):
            _, size, sequence = unpack_frame(data, offset)
            assert sequence == expected_seq
            offset += size

    def test_v2_batch_bytes_equal_concatenated_v2_frames(self):
        batch = make_batch(4, 6, 10, seed=2)
        packed = bytes(pack_blocks(batch, version=VERSION2, first_sequence=9))
        legacy = b"".join(
            encode_frame(block, version=VERSION2, sequence=9 + row)
            for row, block in enumerate(batch.rows())
        )
        assert packed == legacy

    def test_old_reader_still_parses_default_frames(self):
        """The default (v1) output is byte-identical to the PR 2 format."""
        block = make_block()
        assert encode_frame(block)[4] == 1  # version byte unchanged
        assert decode_frame(encode_frame(block)) is not None

    def test_mixed_version_stream_parses(self):
        blocks = [make_block(seed=i, segment_id=i) for i in range(3)]
        stream = (
            encode_frame(blocks[0])
            + encode_frame(blocks[1], version=VERSION2)
            + encode_frame(blocks[2])
        )
        decoded = decode_stream(stream)
        assert [b.segment_id for b in decoded] == [0, 1, 2]


class TestDigest:
    def test_digest_is_deterministic(self):
        block = make_block()
        header = b"\x00" * 22
        first = digest64(header, block.coefficients, block.payload)
        second = digest64(header, block.coefficients, block.payload)
        assert first == second

    def test_every_single_bit_flip_is_detected(self):
        """Odd multiplier weights guarantee any one flipped bit changes
        the digest — exhaustively, over every bit of a small frame.

        Header flips may instead fail structurally (bad magic / unknown
        version / lying lengths -> WireError), which is equally a
        rejection; body and trailer flips must fail the digest check
        specifically.  The single undetectable flip is the checksum
        *flag* bit itself, which downgrades the frame to unprotected —
        the reason the reliable client never disables checksums.
        """
        block = make_block(4, 8, seed=5)
        clean = encode_frame(block, version=VERSION2)
        header_size = 22
        for position in range(len(clean)):
            for bit in range(8):
                if position == 5 and bit == 0:
                    continue  # the documented checksum-flag exception
                frame = bytearray(clean)
                frame[position] ^= 1 << bit
                expected = (
                    WireError if position < header_size else IntegrityError
                )
                with pytest.raises(expected):
                    unpack_frame(bytes(frame))

    def test_strict_raises_lenient_drops_and_counts(self):
        frame = bytearray(encode_frame(make_block(), version=VERSION2))
        frame[30] ^= 0x10
        with pytest.raises(IntegrityError, match="checksum"):
            unpack_frame(bytes(frame))
        stats = WireStats()
        block, size, _ = unpack_frame(bytes(frame), strict=False, stats=stats)
        assert block is None
        assert size == len(frame)
        assert stats.checksum_failures == 1
        assert stats.frames_dropped == 1

    def test_lenient_batch_drops_only_damaged_rows(self):
        batch = make_batch(6, 8, 16, seed=3)
        data = bytearray(pack_blocks(batch, version=VERSION2))
        size_one = frame_size(8, 16, version=VERSION2)
        data[2 * size_one + 30] ^= 0x40  # damage frame 2 only
        stats = WireStats()
        recovered, _ = unpack_round(
            frame_rows(bytes(data), size_one),
            segment_id=batch.segment_id,
            num_blocks=8,
            block_size=16,
            version=VERSION2,
            stats=stats,
        )
        assert len(recovered) == 5
        assert stats.checksum_failures == 1
        kept = [row for row in range(6) if row != 2]
        assert np.array_equal(recovered.payloads, batch.payloads[kept])

    def test_lenient_batch_with_all_rows_damaged_is_empty(self):
        batch = make_batch(3, 4, 8)
        data = bytearray(pack_blocks(batch, version=VERSION2))
        size_one = frame_size(4, 8, version=VERSION2)
        for row in range(3):
            data[row * size_one + 26] ^= 0x01
        stats = WireStats()
        recovered, _ = unpack_round(
            frame_rows(bytes(data), size_one),
            segment_id=batch.segment_id,
            num_blocks=4,
            block_size=8,
            version=VERSION2,
            stats=stats,
        )
        assert len(recovered) == 0
        assert stats.checksum_failures == 3

    def test_stats_merge(self):
        a = WireStats(frames_ok=3, checksum_failures=1, malformed=0)
        b = WireStats(frames_ok=2, checksum_failures=0, malformed=2)
        a.merge(b)
        assert (a.frames_ok, a.checksum_failures, a.malformed) == (5, 1, 2)


class TestMalformedInputs:
    """Damaged framing must raise WireError — never an IndexError or a
    numpy ValueError, and never a read past the buffer."""

    @given(st.binary(min_size=0, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_unpack_frame_fuzz(self, junk):
        try:
            unpack_frame(junk)
        except WireError:
            pass

    @given(st.binary(min_size=0, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_unpack_blocks_fuzz(self, junk):
        try:
            unpack_blocks(junk)
        except WireError:
            pass

    @given(
        st.integers(min_value=0, max_value=2**31),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_flipped_valid_frames_raise_or_parse(self, seed, data):
        """Any single flipped bit of a valid v2 frame either raises a
        WireError subclass or (flips confined to ignored flag bits)
        parses — nothing else."""
        frame = bytearray(encode_frame(make_block(seed=seed), version=VERSION2))
        position = data.draw(st.integers(0, len(frame) - 1))
        bit = data.draw(st.integers(0, 7))
        frame[position] ^= 1 << bit
        try:
            unpack_frame(bytes(frame))
        except WireError:
            pass

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncations_raise_wire_error(self, data):
        frame = encode_frame(make_block(), version=VERSION2)
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(WireError):
            unpack_frame(frame[:cut])

    def test_lying_length_fields_never_over_read(self):
        """A header claiming a huge payload must be rejected from the
        bounds check alone."""
        frame = bytearray(encode_frame(make_block(8, 16), version=VERSION2))
        frame[10:14] = (2**31 - 1).to_bytes(4, "big")  # n field
        with pytest.raises(WireError, match="exceed"):
            unpack_frame(bytes(frame))
        frame = bytearray(encode_frame(make_block(8, 16), version=VERSION2))
        frame[14:18] = (2**31 - 1).to_bytes(4, "big")  # k field
        with pytest.raises(WireError, match="exceed"):
            unpack_frame(bytes(frame))

    def test_wire_errors_are_decoding_errors(self):
        """Compatibility: every framing failure stays catchable as the
        PR 2 DecodingError."""
        assert issubclass(WireError, DecodingError)
        assert issubclass(IntegrityError, WireError)
        with pytest.raises(DecodingError):
            unpack_frame(b"RLNCgarbage")


class TestStreamResynchronization:
    def test_lenient_stream_resyncs_after_junk(self):
        blocks = [make_block(seed=i, segment_id=i) for i in range(3)]
        stream = (
            encode_frame(blocks[0], version=VERSION2)
            + b"\xde\xad\xbe\xef\x00junkjunk"
            + encode_frame(blocks[1], version=VERSION2)
            + encode_frame(blocks[2], version=VERSION2)
        )
        stats = WireStats()
        decoded = decode_stream(stream, strict=False, stats=stats)
        assert [b.segment_id for b in decoded] == [0, 1, 2]
        assert stats.malformed >= 1

    def test_strict_stream_raises_on_junk(self):
        stream = encode_frame(make_block()) + b"\x00\x01\x02"
        with pytest.raises(WireError):
            decode_stream(stream)

    def test_lenient_stream_drops_corrupt_frame_and_continues(self):
        good = make_block(seed=1, segment_id=1)
        bad = bytearray(encode_frame(make_block(seed=2), version=VERSION2))
        bad[28] ^= 0x08
        stream = bytes(bad) + encode_frame(good, version=VERSION2)
        stats = WireStats()
        decoded = decode_stream(stream, strict=False, stats=stats)
        assert [b.segment_id for b in decoded] == [1]
        assert stats.checksum_failures == 1


class TestWireCompatibility:
    """Property test for the PR 2 <-> PR 3 wire boundary, both ways."""

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_old_writer_new_lenient_reader(self, m, n, k, seed):
        """PR 2 writer bytes (v1) parse under the new lenient reader with
        nothing dropped."""
        batch = make_batch(m, n, k, seed)
        data = bytes(pack_blocks(batch))  # default v1 output
        stats = WireStats()
        recovered, foreign = unpack_round(
            frame_rows(data, frame_size(n, k)),
            segment_id=batch.segment_id,
            num_blocks=n,
            block_size=k,
            stats=stats,
        )
        assert foreign == 0
        assert stats.frames_dropped == 0
        assert np.array_equal(recovered.coefficients, batch.coefficients)
        assert np.array_equal(recovered.payloads, batch.payloads)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_new_default_writer_old_strict_reader(self, m, n, k, seed):
        """The new writer's *default* output is byte-for-byte the PR 2
        format, so the old strict per-record reader accepts it."""
        batch = make_batch(m, n, k, seed)
        data = bytes(pack_blocks(batch))
        legacy = b"".join(encode_frame(block) for block in batch.rows())
        assert data == legacy
        parsed = decode_stream(data)  # the PR 2 reader path
        assert len(parsed) == m

    def test_stream_size_accounts_for_version(self):
        assert stream_size(3, 8, 16, version=VERSION2) == 3 * frame_size(
            8, 16, version=VERSION2
        )
        assert frame_size(8, 16, version=VERSION2) == frame_size(8, 16) + 8
