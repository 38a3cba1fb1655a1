"""Wire format for coded blocks: framing, versioning and integrity.

A practical deployment needs to ship coded blocks between machines.
This module defines two compact, self-describing frame versions.

Version 1 (the PR 2 format, still the default — byte-identical output):

```
offset  size  field
0       4     magic "RLNC"
4       1     version (1)
5       1     flags (bit 0: checksum present)
6       4     segment_id        (big endian)
10      4     num_blocks n      (big endian)
14      4     block_size k      (big endian)
18      n     coefficient vector
18+n    k     payload
[18+n+k 4     CRC32 over bytes 0..18+n+k)   when flags bit 0 is set]
```

Version 2 (the fault-tolerant transport format) adds a per-frame
sequence number and replaces the CRC32 with an 8-byte multiply-
accumulate digest (see :func:`digest64`) that vectorizes across a whole
batch — the serving pipeline checksums hundreds of frames with three
numpy passes instead of one C call per frame:

```
offset  size  field
0       4     magic "RLNC"
4       1     version (2)
5       1     flags (bit 0: checksum present; bits 1-7: worker id + 1,
              0 = unstamped — see below)
6       4     segment_id        (big endian)
10      4     num_blocks n      (big endian)
14      4     block_size k      (big endian)
18      4     sequence          (big endian, wraps mod 2^32)
22      n     coefficient vector
22+n    k     payload
[22+n+k 8     digest64 trailer (big endian)  when flags bit 0 is set]
```

Version-2 frames may additionally be *worker-stamped*: a sharded
serving cluster records which worker produced each frame in the upper
seven flag bits (``worker_id + 1``, so zero keeps meaning "unstamped"
and single-node writers are byte-identical to before).  Readers that
predate the stamp only test bit 0, so stamped frames parse everywhere;
:func:`frame_worker_id` recovers the stamp, and the digest covers the
flags byte, so a corrupted stamp is detected like any other header
damage.

Readers accept both versions; writers emit version 1 unless asked for
``version=2``, so PR 2 peers parse this writer's default output and
vice versa.

The self-describing readers (:func:`unpack_frame`, :func:`unpack_blocks`,
:func:`decode_stream`) are strict by default: they raise
:class:`~repro.errors.IntegrityError` on a checksum mismatch and
:class:`~repro.errors.WireError` on structural damage (bad
magic/version, torn frames, length fields that disagree with the buffer
— every length is bound-checked before slicing, so a lying header can
never over-read).  The lenient receive path is :func:`unpack_round`: it
checks every row of a round's ``(m, frame_size)`` byte matrix against
the receiver's own geometry, so damaged rows (the first included) are
dropped one by one and counted in a :class:`WireStats`.

Serialization is sized up front and packed in place: :func:`frame_size`
and :func:`stream_size` tell callers exactly how many bytes a frame or a
homogeneous batch occupies, :func:`pack_frame_into` writes one frame
into a caller-supplied buffer through a :class:`memoryview` (no
intermediate per-field ``bytes()`` copies), and :func:`pack_blocks` /
:func:`unpack_blocks` / :func:`unpack_round` move whole
:class:`~repro.rlnc.block.BlockBatch` matrices through a single
contiguous buffer — the batch path writes all headers, coefficient rows
and payload rows with three strided numpy assignments, and the intake
path hands back coefficient/payload matrices that are zero-copy views
into the received buffer.  The version-1 batch layout is byte-identical
to concatenated :func:`encode_frame` output, so old readers can parse
new writers' individual records.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import IntegrityError, WireError
from repro.obs.registry import Counter, get_registry
from repro.rlnc.block import BlockBatch, CodedBlock

MAGIC = b"RLNC"
VERSION = 1
VERSION2 = 2
FLAG_CHECKSUM = 0x01
#: Largest worker id a version-2 frame can carry (7 flag bits hold
#: ``worker_id + 1``, and 0 means "unstamped").
MAX_WORKER_ID = 126
_WORKER_SHIFT = 1
_HEADER = struct.Struct(">4sBBIII")
_HEADER2 = struct.Struct(">4sBBIIII")
_CRC = struct.Struct(">I")
_DIGEST = struct.Struct(">Q")
#: v2 header bytes are zero-padded to this width for the digest.
_HEADER2_PAD = 24
_SEQ_OFFSET = 18  # big-endian u32 sequence inside the v2 header
#: The header bits a receiver checks against its own geometry: magic,
#: version, the checksum flag, n and k.
_FRAMING_MASK = np.frombuffer(
    _HEADER.pack(b"\xff" * 4, 0xFF, FLAG_CHECKSUM, 0, 0xFFFFFFFF, 0xFFFFFFFF),
    dtype=np.uint8,
)

#: Fixed seed for the digest weight stream ("RLNC" as an integer) —
#: part of the wire format, never change it.
_WEIGHT_SEED = 0x524C4E43
_weight_cache = np.empty(0, dtype=np.uint64)

#: (registry id, metric name) -> counter handle.  The pack/unpack
#: functions are module-level, so handles are cached here instead of on
#: an instance; ``registry.reset()`` keeps cached handles live.
_metric_cache: dict[tuple[int, str], Counter] = {}


def _wire_counter(name: str) -> Counter:
    registry = get_registry()
    key = (id(registry), name)
    counter = _metric_cache.get(key)
    if counter is None:
        counter = registry.counter(name, component="wire")
        _metric_cache[key] = counter
    return counter


def _weights(count: int) -> np.ndarray:
    """First ``count`` odd 64-bit digest weights (cached, prefix-stable).

    Drawn sequentially from a fixed-seed PCG64 stream, so any prefix is
    independent of how many weights have ever been requested.
    """
    global _weight_cache
    if count > _weight_cache.shape[0]:
        size = max(count, 2 * _weight_cache.shape[0], 1024)
        rng = np.random.Generator(np.random.PCG64(_WEIGHT_SEED))
        drawn = rng.integers(0, 2**64, size=size, dtype=np.uint64)
        _weight_cache = drawn | np.uint64(1)
    return _weight_cache[:count]


def _pad_words(matrix: np.ndarray) -> np.ndarray:
    """View an (m, L) uint8 matrix as (m, ceil(L/8)) LE uint64 words.

    Rows are conceptually zero-padded to a multiple of 8 bytes; the
    fast path (contiguous rows, L % 8 == 0) is a pure reinterpreting
    view, anything else pays one copy.
    """
    m, length = matrix.shape
    width = ((length + 7) // 8) * 8
    if length != width or not matrix.flags.c_contiguous:
        padded = np.zeros((m, width), dtype=np.uint8)
        padded[:, :length] = matrix
        matrix = padded
    return matrix.view("<u8")


def _digest64_rows(
    headers: np.ndarray, coefficients: np.ndarray, payloads: np.ndarray
) -> np.ndarray:
    """Per-row 64-bit digests of (header, coefficients, payload) triples.

    The digest is a multiply-accumulate (Carter–Wegman style) hash over
    little-endian 64-bit words with fixed odd pseudo-random weights:

        D = sum_i w_i * word_i   (mod 2^64)

    Each part (padded header, padded coefficient row, padded payload
    row) consumes a disjoint slice of the weight stream, so the digest
    is position-sensitive within and across parts.  Because every
    weight is odd (invertible mod 2^64), corrupting any *single* 8-byte
    word — in particular any single bit flip — always changes the
    digest; multi-word corruptions escape with probability ~2^-64.
    Unlike a CRC, the whole computation is three vectorized numpy
    passes over the batch, which is what keeps the integrity trailer
    nearly free on the serve-round pack path.
    """
    hw = _pad_words(headers)
    cw = _pad_words(coefficients)
    pw = _pad_words(payloads)
    nh, nc, npw = hw.shape[1], cw.shape[1], pw.shape[1]
    weights = _weights(nh + nc + npw)
    # einsum fuses the multiply-accumulate without materialising the
    # (m, words) product matrix; uint64 arithmetic wraps mod 2^64.
    return (
        np.einsum("ij,j->i", hw, weights[:nh])
        + np.einsum("ij,j->i", cw, weights[nh : nh + nc])
        + np.einsum("ij,j->i", pw, weights[nh + nc :])
    )


def digest64(
    header: bytes, coefficients: np.ndarray, payload: np.ndarray
) -> int:
    """The version-2 integrity digest of one frame (see module docs)."""
    head = np.zeros(_HEADER2_PAD, dtype=np.uint8)
    head[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    return int(
        _digest64_rows(
            head.reshape(1, -1),
            coefficients.reshape(1, -1),
            payload.reshape(1, -1),
        )[0]
    )


@dataclass
class WireStats:
    """Counters a lenient unpack accumulates instead of raising.

    One instance per receive path (e.g. per peer connection) gives the
    per-source integrity accounting the quarantine layer reports.

    Accumulation is **explicit and cumulative**: the unpack functions
    only ever *add* to a stats object, across however many calls it is
    reused for — they never zero it behind the caller's back.  A caller
    that wants per-call (or per-round) figures takes a :meth:`snapshot`
    before the call and diffs with :meth:`delta`, or calls :meth:`reset`
    between calls.  (Earlier revisions left this ambiguous, and a reused
    decoder session's drop counters silently carried over between
    ``unpack`` calls while reading code expected fresh counts — the
    regression tests in ``tests/rlnc/test_wire.py`` pin the contract.)

    Attributes:
        frames_ok: frames that parsed and verified.
        checksum_failures: frames whose integrity trailer mismatched.
        malformed: structurally damaged frames (bad magic/version,
            torn framing, lying length fields, trailing junk).
    """

    frames_ok: int = 0
    checksum_failures: int = 0
    malformed: int = 0

    @property
    def frames_dropped(self) -> int:
        """Frames discarded by lenient unpacking."""
        return self.checksum_failures + self.malformed

    def merge(self, other: "WireStats") -> None:
        """Fold another stats object into this one."""
        self.frames_ok += other.frames_ok
        self.checksum_failures += other.checksum_failures
        self.malformed += other.malformed

    def snapshot(self) -> "WireStats":
        """An independent copy of the current totals."""
        return WireStats(
            frames_ok=self.frames_ok,
            checksum_failures=self.checksum_failures,
            malformed=self.malformed,
        )

    def delta(self, since: "WireStats") -> "WireStats":
        """Counts accumulated after ``since`` (an earlier snapshot)."""
        return WireStats(
            frames_ok=self.frames_ok - since.frames_ok,
            checksum_failures=self.checksum_failures - since.checksum_failures,
            malformed=self.malformed - since.malformed,
        )

    def reset(self) -> "WireStats":
        """Zero the counters; returns a snapshot of the values cleared."""
        cleared = self.snapshot()
        self.frames_ok = 0
        self.checksum_failures = 0
        self.malformed = 0
        return cleared

    def as_dict(self) -> dict[str, int]:
        return {
            "frames_ok": self.frames_ok,
            "checksum_failures": self.checksum_failures,
            "malformed": self.malformed,
        }

    # -- registry write-through (one source of truth) ----------------------

    def record_ok(self, count: int = 1) -> None:
        """Count verified frames here *and* in the metrics registry."""
        self.frames_ok += count
        _wire_counter("wire_frames_ok").inc(count)

    def record_checksum_failure(self, count: int = 1) -> None:
        """Count integrity-trailer mismatches (field + registry)."""
        self.checksum_failures += count
        _wire_counter("wire_checksum_failures").inc(count)

    def record_malformed(self, count: int = 1) -> None:
        """Count structurally damaged frames (field + registry)."""
        self.malformed += count
        _wire_counter("wire_malformed_frames").inc(count)


def _header_struct(version: int) -> struct.Struct:
    if version == VERSION:
        return _HEADER
    if version == VERSION2:
        return _HEADER2
    raise WireError(f"unsupported frame version {version}")


def _worker_flag_bits(version: int, worker_id: int | None) -> int:
    """Flag bits carrying an optional version-2 worker stamp."""
    if worker_id is None:
        return 0
    if version != VERSION2:
        raise WireError(
            f"worker-id stamping needs version-2 frames, got version {version}"
        )
    if not 0 <= worker_id <= MAX_WORKER_ID:
        raise WireError(
            f"worker_id must be in [0, {MAX_WORKER_ID}], got {worker_id}"
        )
    return (worker_id + 1) << _WORKER_SHIFT


def frame_worker_id(data, offset: int = 0) -> int | None:
    """The worker id stamped on the frame at ``offset``, or ``None``.

    Version-1 frames and unstamped version-2 frames return ``None``.

    Raises:
        WireError: if the bytes at ``offset`` are not a parseable
            frame header.
    """
    view = memoryview(data)
    _, flags, _, _, _, _, _ = _parse_header(view, offset)
    stamp = (flags >> _WORKER_SHIFT) & 0x7F
    return stamp - 1 if stamp else None


def frame_sequence(data, offset: int = 0) -> int | None:
    """The per-session sequence number of the frame at ``offset``.

    Version-1 frames carry no sequence and return ``None``.  This is the
    in-flight *round tagging* primitive for pipelined serving: a server
    round stamps consecutive sequences per session, so a round's frames
    occupy one contiguous sequence span — the pipelined drivers read the
    span boundaries here (no new frame version, no extra header bytes)
    and verify rounds arrive in order and without overlap.

    Raises:
        WireError: if the bytes at ``offset`` are not a parseable
            frame header.
    """
    view = memoryview(data)
    version, _, _, _, _, sequence, _ = _parse_header(view, offset)
    return None if version == VERSION else sequence


def frame_size(
    num_blocks: int, block_size: int, *, checksum: bool = True, version: int = VERSION
) -> int:
    """Wire bytes for one framed block of this geometry."""
    header = _header_struct(version).size
    trailer = 0
    if checksum:
        trailer = _CRC.size if version == VERSION else _DIGEST.size
    return header + num_blocks + block_size + trailer


def stream_size(
    num_frames: int,
    num_blocks: int,
    block_size: int,
    *,
    checksum: bool = True,
    version: int = VERSION,
) -> int:
    """Wire bytes for ``num_frames`` homogeneous frames (for preallocation)."""
    return num_frames * frame_size(
        num_blocks, block_size, checksum=checksum, version=version
    )


def pack_frame_into(
    block: CodedBlock,
    buffer,
    offset: int = 0,
    *,
    checksum: bool = True,
    version: int = VERSION,
    sequence: int = 0,
    worker_id: int | None = None,
) -> int:
    """Write one frame into ``buffer`` at ``offset``; return bytes written.

    ``buffer`` is any writable buffer (``bytearray``, ``memoryview``,
    ``np.ndarray``).  The coefficient and payload arrays are copied into
    place through memoryview slice assignment — no intermediate
    ``bytes()`` objects are materialized.  ``sequence`` and the optional
    ``worker_id`` stamp are carried only by version-2 frames (the
    sequence wraps mod 2^32).
    """
    n, k = block.num_blocks, block.block_size
    header = _header_struct(version)
    size = frame_size(n, k, checksum=checksum, version=version)
    view = memoryview(buffer)
    if offset + size > len(view):
        raise WireError(
            f"buffer too small: need {offset + size} bytes, have {len(view)}"
        )
    flags = (FLAG_CHECKSUM if checksum else 0) | _worker_flag_bits(
        version, worker_id
    )
    if version == VERSION:
        header.pack_into(view, offset, MAGIC, version, flags, block.segment_id, n, k)
    else:
        header.pack_into(
            view,
            offset,
            MAGIC,
            version,
            flags,
            block.segment_id,
            n,
            k,
            sequence & 0xFFFFFFFF,
        )
    body_end = offset + header.size + n + k
    view[offset + header.size : offset + header.size + n] = block.coefficients
    view[offset + header.size + n : body_end] = block.payload
    if checksum:
        if version == VERSION:
            crc = zlib.crc32(view[offset:body_end]) & 0xFFFFFFFF
            _CRC.pack_into(view, body_end, crc)
        else:
            digest = digest64(
                bytes(view[offset : offset + header.size]),
                block.coefficients,
                block.payload,
            )
            _DIGEST.pack_into(view, body_end, digest)
    _wire_counter("wire_frames_packed").inc()
    _wire_counter("wire_bytes_packed").inc(size)
    return size


def pack_blocks(
    batch: BlockBatch,
    *,
    checksum: bool = True,
    out=None,
    offset: int = 0,
    version: int = VERSION,
    first_sequence: int = 0,
    worker_id: int | None = None,
) -> memoryview:
    """Serialize a whole batch into one contiguous buffer; return its view.

    All headers, coefficient rows and payload rows are written with three
    strided numpy assignments into the (optionally caller-preallocated)
    buffer.  Version-1 integrity is one CRC32 C call per frame;
    version-2 computes every frame's :func:`digest64` in one vectorized
    pass, stamps consecutive sequence numbers starting at
    ``first_sequence``, and carries the optional ``worker_id`` stamp in
    every frame's flags.  When ``out`` is omitted a fresh ``bytearray``
    of exactly :func:`stream_size` bytes is allocated; pass a reusable
    buffer (and an ``offset``) to pack several batches back to back
    without reallocating — the round-based serving pipeline packs every
    peer's blocks for one round into a single buffer this way.

    The version-1 bytes are identical to concatenating
    ``encode_frame(block)`` over ``batch.rows()``.
    """
    m = len(batch)
    n, k = batch.num_blocks, batch.block_size
    header = _header_struct(version)
    size_one = frame_size(n, k, checksum=checksum, version=version)
    total = m * size_one
    if out is None:
        if offset:
            raise WireError("offset requires a caller-supplied buffer")
        out = bytearray(total)
    view = memoryview(out)
    if offset + total > len(view):
        raise WireError(
            f"buffer too small: need {offset + total} bytes, have {len(view)}"
        )
    region = view[offset : offset + total]
    if m == 0:
        return region
    frames = np.frombuffer(region, dtype=np.uint8).reshape(m, size_one)
    flags = (FLAG_CHECKSUM if checksum else 0) | _worker_flag_bits(
        version, worker_id
    )
    if version == VERSION:
        packed = header.pack(MAGIC, version, flags, batch.segment_id, n, k)
    else:
        packed = header.pack(
            MAGIC, version, flags, batch.segment_id, n, k, 0
        )
    frames[:, : header.size] = np.frombuffer(packed, dtype=np.uint8)
    if version == VERSION2:
        sequences = (
            np.uint64(first_sequence) + np.arange(m, dtype=np.uint64)
        ) & np.uint64(0xFFFFFFFF)
        frames[:, _SEQ_OFFSET : _SEQ_OFFSET + 4] = (
            sequences.astype(">u4").view(np.uint8).reshape(m, 4)
        )
    frames[:, header.size : header.size + n] = batch.coefficients
    body = header.size + n + k
    frames[:, header.size + n : body] = batch.payloads
    if checksum:
        if version == VERSION:
            for row in range(m):
                crc = zlib.crc32(frames[row, :body]) & 0xFFFFFFFF
                _CRC.pack_into(region, row * size_one + body, crc)
        else:
            digests = _digest64_rows(
                frames[:, : header.size], batch.coefficients, batch.payloads
            )
            frames[:, body : body + 8] = (
                digests.astype(">u8").view(np.uint8).reshape(m, 8)
            )
    _wire_counter("wire_frames_packed").inc(m)
    _wire_counter("wire_bytes_packed").inc(total)
    return region


def _parse_header(view: memoryview, offset: int):
    """Validate and read one frame header; never reads past the buffer.

    Returns ``(version, flags, segment_id, n, k, sequence, header_size)``.

    Raises:
        WireError: on truncation, bad magic, or unknown version.
    """
    remaining = len(view) - offset
    if remaining < _HEADER.size:
        raise WireError(f"stream truncated at {remaining} bytes")
    if bytes(view[offset : offset + 4]) != MAGIC:
        raise WireError(f"bad magic {bytes(view[offset:offset + 4])!r}")
    version = view[offset + 4]
    header = _header_struct(version)  # raises WireError on unknown version
    if remaining < header.size:
        raise WireError(
            f"stream truncated at {remaining} bytes (need {header.size} "
            f"for a version-{version} header)"
        )
    if version == VERSION:
        _, _, flags, segment_id, n, k = header.unpack_from(view, offset)
        sequence = None
    else:
        _, _, flags, segment_id, n, k, sequence = header.unpack_from(view, offset)
    return version, flags, segment_id, n, k, sequence, header.size


def unpack_frame(
    data,
    offset: int = 0,
    *,
    strict: bool = True,
    stats: WireStats | None = None,
) -> tuple[CodedBlock | None, int, int | None]:
    """Parse one frame at ``offset``; return ``(block, size, sequence)``.

    The incremental intake primitive: works for both frame versions,
    bound-checks every length field against the buffer before touching
    the body (a lying header raises :class:`~repro.errors.WireError`
    instead of over-reading), and handles integrity failures per the
    unpack mode — strict raises :class:`~repro.errors.IntegrityError`;
    lenient counts the failure in ``stats`` and returns ``(None, size,
    sequence)`` so the caller can skip exactly one frame and continue.
    ``sequence`` is ``None`` for version-1 frames.
    """
    view = memoryview(data)
    version, flags, segment_id, n, k, sequence, header_size = _parse_header(
        view, offset
    )
    has_checksum = bool(flags & FLAG_CHECKSUM)
    size = frame_size(n, k, checksum=has_checksum, version=version)
    if offset + size > len(view):
        raise WireError(
            f"header length fields (n={n}, k={k}) exceed the buffer: frame "
            f"needs {size} bytes, {len(view) - offset} remain"
        )
    _wire_counter("wire_bytes_unpacked").inc(size)
    frame = np.frombuffer(view, dtype=np.uint8, count=size, offset=offset)
    _, intact = _verify_rows(frame.reshape(1, size), version, n, k, has_checksum)
    if not intact[0]:
        if strict:
            raise IntegrityError(
                f"checksum mismatch in frame at offset {offset} "
                f"(version {version}, n={n}, k={k})"
            )
        if stats is not None:
            stats.record_checksum_failure()
        return None, size, sequence
    coefficients = frame[header_size : header_size + n].copy()
    payload = frame[header_size + n : header_size + n + k].copy()
    if stats is not None:
        stats.record_ok()
    return (
        CodedBlock(
            coefficients=coefficients, payload=payload, segment_id=segment_id
        ),
        size,
        sequence,
    )


def frame_rows(data, frame_bytes: int, stats: WireStats | None = None) -> np.ndarray:
    """View a receive buffer as an ``(m, frame_bytes)`` uint8 matrix, no copy.

    A torn tail is left out and counted once as malformed in ``stats``;
    ``None`` or an empty buffer gives zero rows.
    """
    if data is None or len(data) == 0:
        return np.empty((0, frame_bytes), dtype=np.uint8)
    flat = np.frombuffer(data, dtype=np.uint8)
    count, tail = divmod(flat.size, frame_bytes)
    if tail and stats is not None:
        stats.record_malformed()
    return flat[: count * frame_bytes].reshape(count, frame_bytes)


def _verify_rows(
    frames: np.ndarray, version: int, n: int, k: int, checksum: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``(framed, intact)`` masks over an (m, frame_size) frame matrix.

    A *framed* row carries the given magic, version, checksum flag, n
    and k; an *intact* row is framed and its trailer (if any) verifies.
    The segment id, worker stamp and sequence are left to the trailer,
    which covers them.
    """
    header_size = _header_struct(version).size
    flag = FLAG_CHECKSUM if checksum else 0
    expected = np.frombuffer(_HEADER.pack(MAGIC, version, flag, 0, n, k), np.uint8)
    mismatch = (frames[:, : _HEADER.size] ^ expected) & _FRAMING_MASK
    framed = ~mismatch.any(axis=1)
    if not checksum:
        return framed, framed
    body = header_size + n + k
    if version == VERSION:
        stored = np.ascontiguousarray(frames[:, body:]).view(">u4").reshape(-1)
        intact = framed.copy()
        for row in np.flatnonzero(framed):
            intact[row] = stored[row] == zlib.crc32(frames[row, :body])
        return framed, intact
    digests = _digest64_rows(
        frames[:, :header_size],
        frames[:, header_size : header_size + n],
        frames[:, header_size + n : body],
    )
    stored = np.ascontiguousarray(frames[:, body:]).view(">u8").reshape(-1)
    return framed, framed & (stored == digests)


def _segment_rows(frames: np.ndarray, segment_id: int) -> np.ndarray:
    expected = np.frombuffer(segment_id.to_bytes(4, "big"), np.uint8)
    return np.all(frames[:, 6:10] == expected, axis=1)


def _rows_batch(frames, keep, header_size, n, k, segment_id, copy=False):
    """The kept rows' coefficient and payload columns as one batch."""
    coefficients = frames[:, header_size : header_size + n]
    payloads = frames[:, header_size + n : header_size + n + k]
    if not keep.all():
        coefficients, payloads = coefficients[keep], payloads[keep]
    elif copy:
        coefficients, payloads = coefficients.copy(), payloads.copy()
    return BlockBatch(coefficients, payloads, segment_id)


def unpack_round(
    frames: np.ndarray,
    *,
    segment_id: int,
    num_blocks: int,
    block_size: int,
    checksum: bool = True,
    version: int = VERSION,
    stats: WireStats | None = None,
) -> tuple[BlockBatch, int]:
    """Verify a round's ``(m, frame_size)`` frame matrix; the lenient intake.

    Every row is checked against the geometry the *receiver* expects,
    never against another frame, so any row (the first included) is
    dropped on its own.  Rows with the wrong magic, version, checksum
    flag, n or k count as malformed in ``stats``; rows whose trailer
    fails count as checksum failures; the rest count as ``frames_ok``.

    Returns:
        ``(batch, foreign)``: the intact rows of ``segment_id`` in order
        (views into ``frames`` when no row is dropped), and the number
        of intact rows of another segment, which the receiver's policy
        accounts for.
    """
    n, k = num_blocks, block_size
    _wire_counter("wire_bytes_unpacked").inc(frames.size)
    framed, intact = _verify_rows(frames, version, n, k, checksum)
    ours = intact & _segment_rows(frames, segment_id)
    m = len(frames)
    framed_count = int(np.count_nonzero(framed))
    intact_count = int(np.count_nonzero(intact))
    if stats is not None:
        if framed_count < m:
            stats.record_malformed(m - framed_count)
        if intact_count < framed_count:
            stats.record_checksum_failure(framed_count - intact_count)
        if intact_count:
            stats.record_ok(intact_count)
    header_size = _header_struct(version).size
    batch = _rows_batch(frames, ours, header_size, n, k, segment_id)
    return batch, intact_count - len(batch)


def unpack_blocks(data, *, copy: bool = False) -> BlockBatch:
    """Parse a homogeneous frame stream into one :class:`BlockBatch`.

    The strict, self-describing batch reader: frame 0's header supplies
    the geometry, and every row of the (m, frame_size) byte matrix is
    verified by the same vectorized core as :func:`unpack_round`.  The
    returned coefficient/payload matrices are zero-copy strided views
    into ``data`` (pass ``copy=True`` to detach them, e.g. when the
    receive buffer will be reused).  The matrices feed
    :meth:`~repro.rlnc.decoder.ProgressiveDecoder.consume_batch`,
    :meth:`~repro.rlnc.decoder.TwoStageDecoder.add_batch` and
    :meth:`~repro.rlnc.recoder.Recoder.add_batch` directly.

    Raises:
        WireError: on empty input, truncation, bad magic/version, torn
            streams, or frames whose geometry or segment id differ from
            frame 0's.  Use :func:`decode_stream` for heterogeneous
            streams.
        IntegrityError: on any checksum failure.
    """
    view = memoryview(data)
    version, flags, segment_id, n, k, _, header_size = _parse_header(view, 0)
    checksum = bool(flags & FLAG_CHECKSUM)
    size_one = frame_size(n, k, checksum=checksum, version=version)
    if len(view) % size_one:
        raise WireError(
            f"stream length {len(view)} is not a multiple of the frame "
            f"size {size_one} (torn frame or mixed geometry)"
        )
    frames = frame_rows(view, size_one)
    _wire_counter("wire_bytes_unpacked").inc(frames.size)
    framed, intact = _verify_rows(frames, version, n, k, checksum)
    if not (framed & _segment_rows(frames, segment_id)).all():
        raise WireError(
            "heterogeneous stream: frame headers differ (use decode_stream)"
        )
    if not intact.all():
        row = int(np.flatnonzero(~intact)[0])
        raise IntegrityError(f"checksum mismatch in frame {row}")
    return _rows_batch(frames, intact, header_size, n, k, segment_id, copy)


def encode_frame(
    block: CodedBlock,
    *,
    checksum: bool = True,
    version: int = VERSION,
    sequence: int = 0,
) -> bytes:
    """Serialize one coded block to its wire frame."""
    buffer = bytearray(
        frame_size(
            block.num_blocks, block.block_size, checksum=checksum, version=version
        )
    )
    pack_frame_into(
        block, buffer, checksum=checksum, version=version, sequence=sequence
    )
    return bytes(buffer)


def decode_frame(frame: bytes) -> CodedBlock:
    """Parse one exact wire frame back into a coded block (either version).

    Raises:
        WireError: on truncation, bad magic/version, or geometry/length
            mismatch.
        IntegrityError: on checksum failure.
    """
    view = memoryview(frame)
    version, flags, _, n, k, _, _ = _parse_header(view, 0)
    expected = frame_size(
        n, k, checksum=bool(flags & FLAG_CHECKSUM), version=version
    )
    if len(view) != expected:
        raise WireError(
            f"frame length {len(view)} does not match geometry "
            f"(n={n}, k={k}, expected {expected})"
        )
    block, _, _ = unpack_frame(view)
    return block


def encode_stream(
    blocks,
    *,
    checksum: bool = True,
    version: int = VERSION,
    first_sequence: int = 0,
) -> bytes:
    """Concatenate frames for a block stream (one up-front allocation).

    Sizes are computed first so the whole stream packs into a single
    buffer via :func:`pack_frame_into` — no per-block ``bytes()``
    intermediates.  Heterogeneous geometries are allowed.  Version-2
    frames are stamped with consecutive sequence numbers.
    """
    blocks = list(blocks)
    sizes = [
        frame_size(
            block.num_blocks, block.block_size, checksum=checksum, version=version
        )
        for block in blocks
    ]
    buffer = bytearray(sum(sizes))
    offset = 0
    for index, (block, size) in enumerate(zip(blocks, sizes)):
        pack_frame_into(
            block,
            buffer,
            offset,
            checksum=checksum,
            version=version,
            sequence=first_sequence + index,
        )
        offset += size
    return bytes(buffer)


def decode_stream(
    data: bytes, *, strict: bool = True, stats: WireStats | None = None
) -> list[CodedBlock]:
    """Split a concatenated frame stream back into blocks.

    Frames are self-describing, so heterogeneous geometries and mixed
    versions are allowed; in strict mode a torn final frame or any
    integrity failure raises.  In lenient mode damaged frames are
    dropped and counted in ``stats``, and after a frame whose *framing*
    is unparseable (corrupted magic or length fields) the reader
    resynchronizes by scanning for the next magic marker — the
    behaviour a long-lived receive loop needs to survive arbitrary
    corruption.  For homogeneous streams, :func:`unpack_blocks` returns
    the same records as one zero-copy batch instead.
    """
    view = memoryview(data)
    blocks: list[CodedBlock] = []
    offset = 0
    while offset < len(view):
        try:
            block, size, _ = unpack_frame(view, offset, strict=strict, stats=stats)
        except IntegrityError:
            raise
        except WireError:
            if strict:
                raise
            if stats is not None:
                stats.record_malformed()
            # Resynchronize: scan for the next magic marker.
            next_magic = bytes(view[offset + 1 :]).find(MAGIC)
            if next_magic < 0:
                break
            offset += 1 + next_magic
            continue
        if block is not None:
            blocks.append(block)
        offset += size
    return blocks
