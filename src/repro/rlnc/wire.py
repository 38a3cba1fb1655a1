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
accumulate digest (see ``_digest64_rows``) that vectorizes across a whole
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

One writer, one header builder and one verifier carry both versions.
:func:`pack_blocks` is the only frame writer: it writes a whole
:class:`~repro.rlnc.block.BlockBatch` (the paper's ``C`` and ``x``
matrices) into one contiguous buffer with three strided numpy
assignments, and computes every trailer (one CRC32 call per v1 frame,
one vectorized digest pass per v2 batch).  :func:`encode_frame` is its
one-row form, and :func:`encode_stream` packs each run of blocks that
share a segment and geometry with one call.  Its header rows come from
``_header_rows``, which also makes the framing row the verifier checks
received headers against.  :func:`frame_size` and :func:`stream_size`
tell callers how many bytes a frame or a homogeneous batch occupies,
so buffers are sized up front and packed in place.

Every reader goes through one verifier, ``_verify``, which returns
three masks over an ``(m, frame_size)`` byte matrix: *framed* (magic,
version, checksum flag, n and k as expected), *intact* (framed, and
the trailer verifies) and *ours* (the expected segment id).  The
self-describing readers (:func:`unpack_frame`, :func:`unpack_blocks`,
:func:`decode_frame` over :func:`unpack_frame`, and
:func:`decode_stream`, one pass per run of frames of one geometry) are
strict: they raise
:class:`~repro.errors.IntegrityError` on a checksum mismatch and
:class:`~repro.errors.WireError` on structural damage (bad
magic/version, torn frames, length fields that disagree with the buffer
— every length is bound-checked before slicing, so a lying header can
never over-read).  The lenient receive path is :func:`unpack_cohort`,
which :func:`~repro.streaming.client.receive_round` calls once per
receiving cohort: it checks every row of the cohort's stacked rounds
against the receivers' own geometry, so damaged rows (the first
included) are dropped one by one and counted in each receiver's
:class:`WireStats`, and hands back coefficient/payload matrices that
are views into the received buffer.  The version-1 batch layout is
byte-identical to concatenated :func:`encode_frame` output, so old
readers can parse new writers' individual records.
"""

from __future__ import annotations

import functools
import itertools
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import IntegrityError, WireError
from repro.obs.stats import CumulativeStats
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
#: Header rows are zero-padded to this width, as the v2 digest reads them.
_HEADER_PAD = 24
_SEGMENT_OFFSET = 6  # big-endian u32 segment id inside either header
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


@dataclass
class WireStats(CumulativeStats):
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

    def record_ok(self, count: int = 1) -> None:
        """Count verified frames."""
        self.frames_ok += count

    def record_checksum_failure(self, count: int = 1) -> None:
        """Count integrity-trailer mismatches."""
        self.checksum_failures += count

    def record_malformed(self, count: int = 1) -> None:
        """Count structurally damaged frames."""
        self.malformed += count


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


def _header_rows(
    m: int,
    version: int,
    flags: int,
    segment_id: int,
    n: int,
    k: int,
    sequences: np.ndarray | None = None,
) -> np.ndarray:
    """The one header builder: ``m`` zero-padded ``(m, 24)`` header rows.

    Both versions share the first 18 bytes; a version-2 row's sequence
    is ``sequences[i]`` (wrapped mod 2^32), zero when ``sequences`` is
    omitted.  The padding is the digest's view of a header, so
    :func:`pack_blocks` copies the leading bytes to the wire and digests
    the rows as they are, and the verifier's framing row is a one-row
    build (:func:`_framing_row`).
    """
    heads = np.zeros((m, _HEADER_PAD), dtype=np.uint8)
    packed = _HEADER.pack(MAGIC, version, flags, segment_id, n, k)
    heads[:, : _HEADER.size] = np.frombuffer(packed, dtype=np.uint8)
    if sequences is not None:
        sequences = np.asarray(sequences, dtype=np.uint64) & np.uint64(0xFFFFFFFF)
        heads[:, _SEQ_OFFSET : _SEQ_OFFSET + 4] = (
            sequences.astype(">u4").view(np.uint8).reshape(m, 4)
        )
    return heads


@functools.lru_cache(maxsize=64)
def _framing_row(version: int, flags: int, n: int, k: int) -> np.ndarray:
    """The header bytes the verifier expects of one geometry (read-only)."""
    row = _header_rows(1, version, flags, 0, n, k)[0, : _HEADER.size]
    row.flags.writeable = False
    return row


def pack_blocks(
    batch: BlockBatch,
    *,
    checksum: bool = True,
    out=None,
    offset: int = 0,
    version: int = VERSION,
    first_sequence: int = 0,
    sequences: np.ndarray | None = None,
    slots: np.ndarray | None = None,
    worker_id: int | None = None,
) -> memoryview:
    """Serialize a whole batch into one contiguous buffer; return its view.

    The one frame writer: :func:`encode_frame` and :func:`encode_stream`
    are forms of it.  All headers, coefficient rows and payload rows are
    written with three strided numpy assignments into the (optionally
    caller-preallocated) buffer.  Version-1 integrity is one CRC32 C
    call per frame; version-2 computes every frame's digest in one
    vectorized pass over the header rows and the batch's own rows,
    stamps sequence numbers, and carries the optional ``worker_id``
    stamp in every frame's flags.  When ``out`` is omitted a fresh
    ``bytearray`` of exactly :func:`stream_size` bytes is allocated;
    pass a reusable buffer (and an ``offset``) to pack several batches
    into one buffer without reallocating.

    The serving round packs each granted segment's emission with one
    call: ``slots[i]`` is the frame index, counted from ``offset``, that
    row ``i`` lands in (by default the rows fill consecutive frames),
    so a segment's rows go straight to their peers' places in a
    peer-major round, and ``sequences[i]`` is row ``i``'s version-2
    sequence number (by default ``first_sequence + i``; both wrap mod
    2^32).

    Returns:
        The view of the frames written: ``stream_size`` bytes from
        ``offset``, or up to the last slot's frame when ``slots`` is
        given.
    """
    m = len(batch)
    n, k = batch.num_blocks, batch.block_size
    header_size = _header_struct(version).size
    size_one = frame_size(n, k, checksum=checksum, version=version)
    rows = slice(0, m) if slots is None else np.asarray(slots, dtype=np.intp)
    count = m if slots is None or not m else int(rows.max()) + 1
    if out is None:
        if offset or slots is not None:
            raise WireError("offset and slots require a caller-supplied buffer")
        out = bytearray(m * size_one)
    view = memoryview(out)
    if offset + count * size_one > len(view):
        raise WireError(
            f"buffer too small: need {offset + count * size_one} bytes, "
            f"have {len(view)}"
        )
    region = view[offset : offset + count * size_one]
    if m == 0:
        return region
    frames = np.frombuffer(region, dtype=np.uint8).reshape(count, size_one)
    flags = (FLAG_CHECKSUM if checksum else 0) | _worker_flag_bits(
        version, worker_id
    )
    if version == VERSION2 and sequences is None:
        sequences = np.uint64(first_sequence) + np.arange(m, dtype=np.uint64)
    heads = _header_rows(
        m,
        version,
        flags,
        batch.segment_id,
        n,
        k,
        sequences if version == VERSION2 else None,
    )
    frames[rows, :header_size] = heads[:, :header_size]
    frames[rows, header_size : header_size + n] = batch.coefficients
    body = header_size + n + k
    frames[rows, header_size + n : body] = batch.payloads
    if checksum:
        if version == VERSION:
            for row in range(m) if slots is None else rows.tolist():
                crc = zlib.crc32(frames[row, :body]) & 0xFFFFFFFF
                _CRC.pack_into(region, row * size_one + body, crc)
        else:
            digests = _digest64_rows(heads, batch.coefficients, batch.payloads)
            frames[rows, body:] = digests.astype(">u8").view(np.uint8).reshape(m, 8)
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


def _framed(
    frames: np.ndarray, version: int, n: int, k: int, checksum: bool
) -> np.ndarray:
    """Rows whose magic, version, checksum flag, n and k are as expected."""
    expected = _framing_row(version, FLAG_CHECKSUM if checksum else 0, n, k)
    mismatch = (frames[:, : _HEADER.size] ^ expected) & _FRAMING_MASK
    return ~mismatch.any(axis=1)


def _verify(
    frames: np.ndarray, version: int, n: int, k: int, checksum: bool, segment_ids
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one verifier: ``(framed, intact, ours)`` masks over a frame matrix.

    ``frames`` is ``(m, frame_size)``.  A *framed* row carries the
    magic, version, checksum flag, n and k of the framing row the
    header builder makes for this geometry; an *intact* row is framed
    and its trailer (if any) verifies; an *ours* row carries
    ``segment_ids`` (one id, or one per row).  The worker stamp and
    sequence are left to the trailer, which covers them.
    """
    header_size = _header_struct(version).size
    framed = _framed(frames, version, n, k, checksum)
    ids = np.asarray(segment_ids, dtype=">u4").reshape(-1, 1).view(np.uint8)
    ours = np.all(frames[:, _SEGMENT_OFFSET : _SEGMENT_OFFSET + 4] == ids, axis=1)
    if not checksum:
        return framed, framed, ours
    body = header_size + n + k
    if version == VERSION:
        stored = np.ascontiguousarray(frames[:, body:]).view(">u4").reshape(-1)
        intact = framed.copy()
        for row in np.flatnonzero(framed):
            intact[row] = stored[row] == zlib.crc32(frames[row, :body])
        return framed, intact, ours
    digests = _digest64_rows(
        frames[:, :header_size],
        frames[:, header_size : header_size + n],
        frames[:, header_size + n : body],
    )
    stored = np.ascontiguousarray(frames[:, body:]).view(">u8").reshape(-1)
    return framed, framed & (stored == digests), ours


def unpack_frame(data, offset: int = 0) -> tuple[CodedBlock, int, int | None]:
    """Parse one frame at ``offset``; return ``(block, size, sequence)``.

    The incremental, self-describing frame reader: works for both frame
    versions and bound-checks every length field against the buffer
    before touching the body (a lying header raises
    :class:`~repro.errors.WireError` instead of over-reading).
    ``sequence`` is ``None`` for version-1 frames.

    Raises:
        WireError: on truncation, bad magic/version, or length fields
            that exceed the buffer.
        IntegrityError: on a checksum mismatch.
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
    frame = np.frombuffer(view, dtype=np.uint8, count=size, offset=offset)
    _, intact, _ = _verify(
        frame.reshape(1, size), version, n, k, has_checksum, segment_id
    )
    if not intact[0]:
        raise IntegrityError(
            f"checksum mismatch in frame at offset {offset} "
            f"(version {version}, n={n}, k={k})"
        )
    coefficients = frame[header_size : header_size + n].copy()
    payload = frame[header_size + n : header_size + n + k].copy()
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


def unpack_cohort(
    frames: np.ndarray,
    counts: list[int],
    segment_ids: list[int],
    *,
    num_blocks: int,
    block_size: int,
    checksum: bool = True,
    version: int = VERSION,
    stats: list[WireStats | None],
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]], list[int]]:
    """Verify a receiving cohort's stacked frames; the lenient intake.

    ``frames`` stacks the receivers' rounds in order: receiver ``i``
    owns the next ``counts[i]`` rows, expects ``segment_ids[i]`` and
    counts its damage in ``stats[i]``.  One vectorized pass checks
    every row against the geometry the receivers expect, never against
    another frame, so any row (the first included) is dropped on its
    own: rows with the wrong magic, version, checksum flag, n or k
    count as malformed, rows whose trailer fails as checksum failures,
    the rest as ``frames_ok``.  A single receiver is a cohort of one.

    Returns:
        ``(coefficients, payloads, bounds, foreign)``: every receiver's
        intact rows of its segment, stacked in order as views of one
        frame matrix (``frames`` itself when no row is dropped, else
        one compacted copy); receiver ``i``'s rows are
        ``bounds[i] = (start, stop)``, and ``foreign[i]`` counts its
        intact rows of another segment, which its policy accounts for.
    """
    n, k = num_blocks, block_size
    if len(set(segment_ids)) == 1:
        expected = segment_ids[0]
    else:
        expected = np.repeat(np.asarray(segment_ids, dtype=np.int64), counts)
    framed, intact, ours = _verify(frames, version, n, k, checksum, expected)
    ours &= intact
    bounds = []
    foreign = []
    start = kept = 0
    for count, receiver_stats in zip(counts, stats):
        rows = slice(start, start + count)
        start += count
        framed_count = int(np.count_nonzero(framed[rows]))
        intact_count = int(np.count_nonzero(intact[rows]))
        ours_count = int(np.count_nonzero(ours[rows]))
        bounds.append((kept, kept + ours_count))
        kept += ours_count
        foreign.append(intact_count - ours_count)
        if receiver_stats is not None:
            if framed_count < count:
                receiver_stats.record_malformed(count - framed_count)
            if intact_count < framed_count:
                receiver_stats.record_checksum_failure(framed_count - intact_count)
            if intact_count:
                receiver_stats.record_ok(intact_count)
    if kept < len(frames):
        frames = frames[ours]
    header_size = _header_struct(version).size
    return (
        frames[:, header_size : header_size + n],
        frames[:, header_size + n : header_size + n + k],
        bounds,
        foreign,
    )


def unpack_blocks(data, *, copy: bool = False) -> BlockBatch:
    """Parse a homogeneous frame stream into one :class:`BlockBatch`.

    The strict, self-describing batch reader: frame 0's header supplies
    the geometry, and every row of the (m, frame_size) byte matrix is
    checked by the same verifier as :func:`unpack_cohort`.  The
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
    framed, intact, ours = _verify(frames, version, n, k, checksum, segment_id)
    if not (framed & ours).all():
        raise WireError(
            "heterogeneous stream: frame headers differ (use decode_stream)"
        )
    if not intact.all():
        row = int(np.flatnonzero(~intact)[0])
        raise IntegrityError(f"checksum mismatch in frame {row}")
    coefficients = frames[:, header_size : header_size + n]
    payloads = frames[:, header_size + n : header_size + n + k]
    if copy:
        coefficients, payloads = coefficients.copy(), payloads.copy()
    return BlockBatch(coefficients, payloads, segment_id)


def encode_frame(
    block: CodedBlock,
    *,
    checksum: bool = True,
    version: int = VERSION,
    sequence: int = 0,
) -> bytes:
    """Serialize one coded block to its wire frame (a one-row batch)."""
    batch = BlockBatch(
        block.coefficients.reshape(1, -1),
        block.payload.reshape(1, -1),
        block.segment_id,
    )
    return bytes(
        pack_blocks(
            batch, checksum=checksum, version=version, first_sequence=sequence
        )
    )


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

    Heterogeneous geometries and segments are allowed: each run of
    consecutive blocks sharing a segment id and geometry is stacked and
    written by one :func:`pack_blocks` call into the single buffer.
    Version-2 frames are stamped with consecutive sequence numbers.
    """
    runs = [
        list(run)
        for _, run in itertools.groupby(
            blocks, key=lambda b: (b.segment_id, b.num_blocks, b.block_size)
        )
    ]
    sizes = [
        len(run)
        * frame_size(
            run[0].num_blocks, run[0].block_size, checksum=checksum, version=version
        )
        for run in runs
    ]
    buffer = bytearray(sum(sizes))
    offset = sequence = 0
    for run, size in zip(runs, sizes):
        pack_blocks(
            BlockBatch.from_blocks(run),
            checksum=checksum,
            out=buffer,
            offset=offset,
            version=version,
            first_sequence=first_sequence + sequence,
        )
        offset += size
        sequence += len(run)
    return bytes(buffer)


def decode_stream(data: bytes) -> list[CodedBlock]:
    """Split a concatenated frame stream back into blocks.

    Frames are self-describing, so heterogeneous geometries and mixed
    versions are allowed.  Each run of consecutive frames sharing a
    header geometry (version, checksum flag, n and k) is verified by one
    ``_verify`` pass, and the first damaged frame raises as
    :func:`unpack_frame` does on it: a bad header or a torn final frame
    with :class:`~repro.errors.WireError`, a trailer mismatch with
    :class:`~repro.errors.IntegrityError`.  For homogeneous streams,
    :func:`unpack_blocks` returns the same records as one zero-copy
    batch instead.
    """
    view = memoryview(data)
    blocks: list[CodedBlock] = []
    offset = 0
    while offset < len(view):
        version, flags, _, n, k, _, header_size = _parse_header(view, offset)
        checksum = bool(flags & FLAG_CHECKSUM)
        size = frame_size(n, k, checksum=checksum, version=version)
        count = (len(view) - offset) // size
        if not count:
            unpack_frame(view, offset)  # raises: the last frame is torn
        frames = np.frombuffer(
            view, dtype=np.uint8, count=count * size, offset=offset
        ).reshape(count, size)
        # The run ends at the first frame of another geometry (or a
        # damaged header); the next iteration parses it on its own.
        framed = _framed(frames, version, n, k, checksum)
        frames = frames[: count if framed.all() else int(np.argmin(framed))]
        _, intact, _ = _verify(frames, version, n, k, checksum, 0)
        damaged = np.flatnonzero(~intact)
        if len(damaged):
            raise IntegrityError(
                f"checksum mismatch in frame at offset "
                f"{offset + int(damaged[0]) * size} (version {version}, n={n}, k={k})"
            )
        ids = frames[:, _SEGMENT_OFFSET : _SEGMENT_OFFSET + 4].copy().view(">u4")
        coefficients = frames[:, header_size : header_size + n].copy()
        payloads = frames[:, header_size + n : header_size + n + k].copy()
        blocks.extend(
            CodedBlock(coefficients=c, payload=p, segment_id=segment_id)
            for c, p, segment_id in zip(coefficients, payloads, ids[:, 0].tolist())
        )
        offset += len(frames) * size
    return blocks
