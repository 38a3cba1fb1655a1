"""The frame codec against a pinned copy of its per-frame reference.

``legacy`` below is a frozen, self-contained copy of the per-frame
codec as it stood before ``pack_blocks`` became the only frame writer:
``pack_frame_into`` wrote one frame with ``struct.pack_into``, and the
strict readers verified one frame matrix with a framing check plus a
separate segment filter.  Every writer must stay byte-identical to it
(v1 and v2, checksum on and off, worker stamps, sequences wrapping at
2^32, ``offset`` and ``slots``), every strict reader must raise the same
exception type on torn, foreign and single-bit-flipped input.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntegrityError, WireError
from repro.rlnc import BlockBatch, CodedBlock
from repro.rlnc import wire

class legacy:
    """The pinned reference codec."""

    MAGIC = b"RLNC"
    HEADER = struct.Struct(">4sBBIII")
    HEADER2 = struct.Struct(">4sBBIIII")
    CRC = struct.Struct(">I")
    DIGEST = struct.Struct(">Q")
    FRAMING_MASK = np.frombuffer(
        HEADER.pack(b"\xff" * 4, 0xFF, 1, 0, 0xFFFFFFFF, 0xFFFFFFFF), np.uint8
    )

    @staticmethod
    def weights(count):
        rng = np.random.Generator(np.random.PCG64(0x524C4E43))
        drawn = rng.integers(0, 2**64, size=max(count, 1024), dtype=np.uint64)
        return (drawn | np.uint64(1))[:count]

    @staticmethod
    def words(matrix):
        m, length = matrix.shape
        padded = np.zeros((m, ((length + 7) // 8) * 8), dtype=np.uint8)
        padded[:, :length] = matrix
        return padded.view("<u8")

    @classmethod
    def digests(cls, headers, coefficients, payloads):
        parts = [cls.words(p) for p in (headers, coefficients, payloads)]
        weights = cls.weights(sum(p.shape[1] for p in parts))
        total = np.zeros(len(headers), dtype=np.uint64)
        start = 0
        for part in parts:
            stop = start + part.shape[1]
            total += np.einsum("ij,j->i", part, weights[start:stop])
            start = stop
        return total

    @classmethod
    def struct_for(cls, version):
        if version == 1:
            return cls.HEADER
        if version == 2:
            return cls.HEADER2
        raise WireError(f"unsupported frame version {version}")

    @classmethod
    def frame_size(cls, n, k, checksum, version):
        trailer = (4 if version == 1 else 8) if checksum else 0
        return cls.struct_for(version).size + n + k + trailer

    @classmethod
    def pack_frame_into(
        cls, block, buffer, offset=0, *, checksum=True, version=1, sequence=0,
        worker_id=None,
    ):
        n, k = block.num_blocks, block.block_size
        header = cls.struct_for(version)
        size = cls.frame_size(n, k, checksum, version)
        view = memoryview(buffer)
        if offset + size > len(view):
            raise WireError("buffer too small")
        flags = 1 if checksum else 0
        if worker_id is not None:
            if version != 2 or not 0 <= worker_id <= 126:
                raise WireError("bad worker stamp")
            flags |= (worker_id + 1) << 1
        fields = [cls.MAGIC, version, flags, block.segment_id, n, k]
        if version == 2:
            fields.append(sequence & 0xFFFFFFFF)
        header.pack_into(view, offset, *fields)
        body_end = offset + header.size + n + k
        view[offset + header.size : offset + header.size + n] = block.coefficients
        view[offset + header.size + n : body_end] = block.payload
        if checksum:
            if version == 1:
                crc = zlib.crc32(view[offset:body_end]) & 0xFFFFFFFF
                cls.CRC.pack_into(view, body_end, crc)
            else:
                head = np.zeros((1, 24), dtype=np.uint8)
                head[0, : header.size] = np.frombuffer(
                    bytes(view[offset : offset + header.size]), np.uint8
                )
                digest = cls.digests(
                    head, block.coefficients.reshape(1, -1),
                    block.payload.reshape(1, -1),
                )
                cls.DIGEST.pack_into(view, body_end, int(digest[0]))
        return size

    @classmethod
    def encode_frame(cls, block, *, checksum=True, version=1, sequence=0):
        buffer = bytearray(
            cls.frame_size(block.num_blocks, block.block_size, checksum, version)
        )
        cls.pack_frame_into(
            block, buffer, checksum=checksum, version=version, sequence=sequence
        )
        return bytes(buffer)

    @classmethod
    def encode_stream(cls, blocks, *, checksum=True, version=1, first_sequence=0):
        blocks = list(blocks)
        sizes = [
            cls.frame_size(b.num_blocks, b.block_size, checksum, version)
            for b in blocks
        ]
        buffer = bytearray(sum(sizes))
        offset = 0
        for index, (block, size) in enumerate(zip(blocks, sizes)):
            cls.pack_frame_into(
                block, buffer, offset, checksum=checksum, version=version,
                sequence=first_sequence + index,
            )
            offset += size
        return bytes(buffer)

    @classmethod
    def parse_header(cls, view, offset):
        remaining = len(view) - offset
        if remaining < cls.HEADER.size:
            raise WireError("truncated")
        if bytes(view[offset : offset + 4]) != cls.MAGIC:
            raise WireError("bad magic")
        version = view[offset + 4]
        header = cls.struct_for(version)
        if remaining < header.size:
            raise WireError("truncated header")
        fields = header.unpack_from(view, offset)
        sequence = fields[6] if version == 2 else None
        _, _, flags, segment_id, n, k = fields[:6]
        return version, flags, segment_id, n, k, sequence, header.size

    @classmethod
    def verify_rows(cls, frames, version, n, k, checksum):
        header_size = cls.struct_for(version).size
        flag = 1 if checksum else 0
        expected = np.frombuffer(
            cls.HEADER.pack(cls.MAGIC, version, flag, 0, n, k), np.uint8
        )
        framed = ~((frames[:, :18] ^ expected) & cls.FRAMING_MASK).any(axis=1)
        if not checksum:
            return framed, framed
        body = header_size + n + k
        if version == 1:
            stored = np.ascontiguousarray(frames[:, body:]).view(">u4").reshape(-1)
            intact = framed.copy()
            for row in np.flatnonzero(framed):
                intact[row] = stored[row] == zlib.crc32(frames[row, :body])
            return framed, intact
        head = np.zeros((len(frames), 24), dtype=np.uint8)
        head[:, :header_size] = frames[:, :header_size]
        digests = cls.digests(
            head, frames[:, header_size : header_size + n],
            frames[:, header_size + n : body],
        )
        stored = np.ascontiguousarray(frames[:, body:]).view(">u8").reshape(-1)
        return framed, framed & (stored == digests)

    @classmethod
    def unpack_frame(cls, data, offset=0):
        view = memoryview(data)
        version, flags, segment_id, n, k, sequence, header_size = cls.parse_header(
            view, offset
        )
        checksum = bool(flags & 1)
        size = cls.frame_size(n, k, checksum, version)
        if offset + size > len(view):
            raise WireError("length fields exceed the buffer")
        frame = np.frombuffer(view, dtype=np.uint8, count=size, offset=offset)
        _, intact = cls.verify_rows(frame.reshape(1, size), version, n, k, checksum)
        if not intact[0]:
            raise IntegrityError("checksum mismatch")
        block = CodedBlock(
            coefficients=frame[header_size : header_size + n].copy(),
            payload=frame[header_size + n : header_size + n + k].copy(),
            segment_id=segment_id,
        )
        return block, size, sequence

    @classmethod
    def unpack_blocks(cls, data):
        view = memoryview(data)
        version, flags, segment_id, n, k, _, header_size = cls.parse_header(view, 0)
        checksum = bool(flags & 1)
        size_one = cls.frame_size(n, k, checksum, version)
        if len(view) % size_one:
            raise WireError("torn stream")
        frames = np.frombuffer(view, dtype=np.uint8).reshape(-1, size_one)
        framed, intact = cls.verify_rows(frames, version, n, k, checksum)
        ours = np.all(
            frames[:, 6:10] == np.array([segment_id], ">u4").view(np.uint8), axis=1
        )
        if not (framed & ours).all():
            raise WireError("heterogeneous stream")
        if not intact.all():
            raise IntegrityError("checksum mismatch")
        return BlockBatch(
            frames[:, header_size : header_size + n],
            frames[:, header_size + n : header_size + n + k],
            segment_id,
        )

    @classmethod
    def decode_frame(cls, frame):
        view = memoryview(frame)
        version, flags, _, n, k, _, _ = cls.parse_header(view, 0)
        if len(view) != cls.frame_size(n, k, bool(flags & 1), version):
            raise WireError("frame length does not match geometry")
        return cls.unpack_frame(view)[0]

    @classmethod
    def decode_stream(cls, data):
        view = memoryview(data)
        blocks, offset = [], 0
        while offset < len(view):
            block, size, _ = cls.unpack_frame(view, offset)
            blocks.append(block)
            offset += size
        return blocks


def run_both(current, reference, *args, **kwargs):
    """Call both; return ``(outcome, reference outcome)``.

    An outcome is the return value or the raised exception's type.
    """
    try:
        result = current(*args, **kwargs)
    except (WireError, IntegrityError) as error:
        result = type(error)
    try:
        expected = reference(*args, **kwargs)
    except (WireError, IntegrityError) as error:
        expected = type(error)
    return result, expected


def as_key(result):
    """A comparable form of a reader's output."""
    if isinstance(result, type):
        return result
    if isinstance(result, tuple):  # unpack_frame
        return (as_key(result[0]), result[1], result[2])
    if isinstance(result, CodedBlock):
        return (
            result.segment_id,
            result.coefficients.tobytes(),
            result.payload.tobytes(),
        )
    if isinstance(result, BlockBatch):
        return (
            result.segment_id,
            np.ascontiguousarray(result.coefficients).tobytes(),
            np.ascontiguousarray(result.payloads).tobytes(),
        )
    return [as_key(item) for item in result]


def make_batch(rng, m, n, k, segment_id):
    return BlockBatch(
        rng.integers(0, 256, size=(m, n), dtype=np.uint8),
        rng.integers(0, 256, size=(m, k), dtype=np.uint8),
        segment_id,
    )


geometry = st.tuples(st.integers(1, 12), st.integers(1, 40))
versions = st.sampled_from([wire.VERSION, wire.VERSION2])
segment_ids = st.integers(0, 2**32 - 1)
sequences = st.integers(0, 2**33)


class TestWriters:
    @given(geometry, versions, st.booleans(), segment_ids, sequences, st.integers(0))
    @settings(max_examples=60, deadline=None)
    def test_encode_frame(self, nk, version, checksum, segment_id, sequence, seed):
        rng = np.random.default_rng(seed)
        block = make_batch(rng, 1, *nk, segment_id).rows()[0]
        kwargs = dict(checksum=checksum, version=version, sequence=sequence)
        frame, expected = run_both(
            wire.encode_frame, legacy.encode_frame, block, **kwargs
        )
        assert frame == expected

    @given(
        st.lists(st.tuples(geometry, st.integers(0, 3), st.integers(1, 3)), max_size=5),
        versions,
        st.booleans(),
        sequences,
        st.integers(0),
    )
    @settings(max_examples=60, deadline=None)
    def test_encode_stream_heterogeneous(
        self, runs, version, checksum, first_sequence, seed
    ):
        """Runs of one geometry and segment, in any mix of both."""
        rng = np.random.default_rng(seed)
        blocks = [
            block
            for nk, segment_id, length in runs
            for block in make_batch(rng, length, *nk, segment_id).rows()
        ]
        kwargs = dict(checksum=checksum, version=version, first_sequence=first_sequence)
        stream, expected = run_both(
            wire.encode_stream, legacy.encode_stream, blocks, **kwargs
        )
        assert stream == expected

    @given(
        geometry,
        versions,
        st.booleans(),
        segment_ids,
        sequences,
        st.one_of(st.none(), st.integers(0, wire.MAX_WORKER_ID)),
        st.integers(0, 6),
        st.integers(0, 3),
        st.booleans(),
        st.integers(0),
    )
    @settings(max_examples=80, deadline=None)
    def test_pack_blocks(
        self, nk, version, checksum, segment_id, first, worker_id, m, offset,
        slotted, seed,
    ):
        """Every frame ``pack_blocks`` writes is the pinned one-frame writer's."""
        if version == wire.VERSION:
            worker_id = None
        rng = np.random.default_rng(seed)
        batch = make_batch(rng, m, *nk, segment_id)
        size_one = legacy.frame_size(*nk, checksum, version)
        count = m + 2 if slotted else m
        slots = rng.permutation(count)[:m] if slotted else None
        seqs = rng.integers(0, 2**33, m, dtype=np.uint64) if slotted else None
        out = bytearray(b"\xa5" * ((offset + count) * size_one))
        expected = bytearray(out)
        kwargs = dict(checksum=checksum, version=version, worker_id=worker_id)
        if slotted:
            region = wire.pack_blocks(
                batch, out=out, offset=offset * size_one, slots=slots,
                sequences=seqs, **kwargs,
            )
        else:
            region = wire.pack_blocks(
                batch, out=out, offset=offset * size_one, first_sequence=first,
                **kwargs,
            )
        for row, block in enumerate(batch.rows()):
            slot = row if slots is None else int(slots[row])
            sequence = first + row if seqs is None else int(seqs[row])
            legacy.pack_frame_into(
                block, expected, (offset + slot) * size_one, sequence=sequence,
                **kwargs,
            )
        assert out == expected
        last = 0 if not m else (int(slots.max()) + 1 if slotted else m)
        assert len(region) == last * size_one
        if not slotted and not offset:
            fresh = wire.pack_blocks(batch, first_sequence=first, **kwargs)
            assert bytes(fresh) == bytes(expected[: m * size_one])

    def test_pack_blocks_errors_match(self):
        batch = make_batch(np.random.default_rng(0), 2, 4, 8, 1)
        with pytest.raises(WireError):
            wire.pack_blocks(batch, worker_id=0)  # v1 cannot carry a stamp
        with pytest.raises(WireError):
            wire.pack_blocks(batch, version=2, worker_id=wire.MAX_WORKER_ID + 1)
        with pytest.raises(WireError):
            wire.pack_blocks(batch, out=bytearray(10))
        with pytest.raises(WireError):
            wire.pack_blocks(batch, offset=1)
        with pytest.raises(WireError):
            wire.encode_frame(batch.rows()[0], version=3)


def damaged(data, rng, kind, nk, checksum, version):
    """``data`` torn, extended by a foreign frame, or one bit flipped.

    A foreign frame is an intact frame of another segment: of the same
    geometry and settings (``"foreign"``), or of any (``"mixed"``).
    """
    data = bytearray(data)
    if kind == "torn":
        return bytes(data[: int(rng.integers(0, len(data)))])
    if kind == "mixed":
        nk = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        checksum, version = bool(rng.integers(2)), int(rng.integers(1, 3))
    if kind in ("foreign", "mixed"):
        other = make_batch(rng, 1, *nk, 2**31).rows()[0]
        extra = legacy.encode_frame(other, checksum=checksum, version=version)
        return bytes(data) + extra
    if kind == "magic":
        return b"RLNX" + bytes(data[4:])
    bit = int(rng.integers(0, 8 * len(data)))
    data[bit // 8] ^= 1 << (bit % 8)
    return bytes(data)


READERS = [
    (wire.unpack_frame, legacy.unpack_frame),
    (wire.unpack_blocks, legacy.unpack_blocks),
    (wire.decode_frame, legacy.decode_frame),
    (wire.decode_stream, legacy.decode_stream),
]


class TestStrictReaders:
    @given(
        geometry,
        versions,
        st.booleans(),
        st.integers(0, 3),
        st.integers(1, 3),
        st.sampled_from(["clean", "torn", "foreign", "mixed", "magic", "flip"]),
        st.integers(0),
    )
    @settings(max_examples=150, deadline=None)
    def test_readers_match_reference(
        self, nk, version, checksum, segment_id, m, kind, seed
    ):
        rng = np.random.default_rng(seed)
        batch = make_batch(rng, m, *nk, segment_id)
        clean = legacy.encode_stream(batch.rows(), checksum=checksum, version=version)
        data = clean
        if kind != "clean":
            data = damaged(clean, rng, kind, nk, checksum, version)
        for current, reference in READERS:
            result, expected = run_both(current, reference, data)
            assert as_key(result) == as_key(expected), current.__name__

    def test_every_bit_flip_of_a_frame(self):
        """Exhaustively, per version and checksum setting."""
        block = make_batch(np.random.default_rng(5), 1, 3, 5, 9).rows()[0]
        for version in (wire.VERSION, wire.VERSION2):
            for checksum in (True, False):
                clean = legacy.encode_frame(block, checksum=checksum, version=version)
                for bit in range(8 * len(clean)):
                    frame = bytearray(clean)
                    frame[bit // 8] ^= 1 << (bit % 8)
                    for current, reference in READERS:
                        result, expected = run_both(current, reference, bytes(frame))
                        assert as_key(result) == as_key(expected), (
                            current.__name__, version, checksum, bit,
                        )


class TestDecodeStreamRuns:
    """``decode_stream`` verifies each run of one geometry in one pass."""

    RUNS = [  # (version, checksum, n, k, segment_id, frames)
        (wire.VERSION2, True, 4, 8, 1, 3),
        (wire.VERSION2, True, 4, 8, 2, 2),  # same geometry, next segment
        (wire.VERSION, True, 4, 8, 2, 2),
        (wire.VERSION2, True, 3, 5, 7, 1),
        (wire.VERSION, True, 6, 2, 0, 2),
        (wire.VERSION2, True, 4, 8, 1, 2),
    ]

    def frames(self, checksums=None):
        rng = np.random.default_rng(3)
        frames = []
        for index, (version, checksum, n, k, segment_id, count) in enumerate(
            self.RUNS
        ):
            if checksums is not None:
                checksum = checksums[index]
            for block in make_batch(rng, count, n, k, segment_id).rows():
                frames.append(
                    wire.encode_frame(
                        block, checksum=checksum, version=version,
                        sequence=len(frames),
                    )
                )
        return frames

    @pytest.mark.parametrize(
        "checksums",
        [None, [False] * 6, [True, False, True, False, False, True]],
        ids=["checksummed", "bare", "mixed"],
    )
    def test_mixed_stream_matches_per_frame_decode(self, checksums):
        frames = self.frames(checksums)
        blocks = wire.decode_stream(b"".join(frames))
        assert as_key(blocks) == as_key([wire.decode_frame(f) for f in frames])

    def test_every_bit_flip_raises(self):
        stream = b"".join(self.frames())
        for bit in range(8 * len(stream)):
            damaged_stream = bytearray(stream)
            damaged_stream[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises((WireError, IntegrityError)):
                wire.decode_stream(bytes(damaged_stream))
