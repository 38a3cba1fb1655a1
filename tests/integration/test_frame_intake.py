"""Both receivers' frame intake, against the per-frame path it replaced.

``ClientSession.intake`` and ``RelayUplink.intake`` verify a round as
one ``(m, frame_size)`` byte matrix (``rlnc.wire.frame_rows`` ->
``FaultPlan.apply_frames`` -> ``rlnc.wire.unpack_round``).  Before that,
each receiver cut the round into one ``bytes`` per frame, ran a list of
frames through the fault plan and called ``unpack_frame`` once per frame.
That path is pinned below, as ``rlnc/_reference.py`` pins the seed
decoder, and the matrix path must match it row for row and count for
count.  The one intended difference: a frame whose only damage is a
cleared checksum flag used to parse as an unprotected frame and be
accepted; the matrix path checks the flag against the receiver's
geometry and rejects it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireError
from repro.faults import FaultPlan
from repro.gpu import GTX280
from repro.multicast import RelayNode, RelayUplink
from repro.obs import get_tracer, tracing
from repro.rlnc import BlockBatch, CodingParams, ProgressiveDecoder, WireStats
from repro.rlnc.wire import (
    FLAG_CHECKSUM,
    VERSION,
    VERSION2,
    frame_size,
    pack_blocks,
    unpack_frame,
)
from repro.streaming import ClientSession, MediaProfile, StreamingServer

PARAMS = CodingParams(8, 24)
PROFILE = MediaProfile(params=PARAMS)
N, K = PARAMS.num_blocks, PARAMS.block_size
SEGMENT = 5
UPSTREAM = "server"


# -- the per-frame path, pinned -------------------------------------------


def reference_split(wire_bytes, size, stats):
    """``ClientSession._split``: one ``bytes`` per whole frame."""
    if wire_bytes is None or len(wire_bytes) == 0:
        return []
    data = bytes(wire_bytes)
    count, tail = divmod(len(data), size)
    if tail:
        stats.record_malformed()
    return [data[i * size : (i + 1) * size] for i in range(count)]


def reference_apply_frames(plan, frames):
    """``FaultPlan.apply_frames`` over a list of ``bytes`` frames."""

    def corrupt(frame, offset, bit):
        mangled = bytearray(frame)
        mangled[offset % len(mangled)] ^= bit
        return bytes(mangled)

    return plan._schedule([bytes(frame) for frame in frames], len, corrupt)


def reference_client_loop(frames, *, segment_id, decoder, stats):
    """``ClientSession.intake``'s per-frame loop; returns the kept blocks."""
    blocks = []
    for frame in frames:
        try:
            block, _, _ = unpack_frame(frame, strict=False, stats=stats)
        except WireError:
            stats.record_malformed()
            block = None
        if block is None:
            decoder.record_corrupt(UPSTREAM)
            continue
        if (
            block.segment_id != segment_id
            or block.num_blocks != N
            or block.block_size != K
        ):
            stats.record_malformed()
            decoder.record_corrupt(UPSTREAM)
            continue
        blocks.append(block)
    return blocks


def reference_relay_loop(frames, *, segment_id, stats):
    """``RelayUplink.intake``'s per-frame loop; returns the kept blocks."""
    blocks = []
    for frame in frames:
        try:
            block, _, _ = unpack_frame(frame, strict=False, stats=stats)
        except Exception:
            stats.record_malformed()
            continue
        if block is None or block.segment_id != segment_id:
            continue
        blocks.append(block)
    return blocks


# -- helpers ---------------------------------------------------------------


def random_batch(rng, m, segment_id):
    return BlockBatch(
        coefficients=rng.integers(0, 256, size=(m, N), dtype=np.uint8),
        payloads=rng.integers(0, 256, size=(m, K), dtype=np.uint8),
        segment_id=segment_id,
    )


def build_round(
    rng, m, *, version, checksum, foreign_at=None, damage_first=False, torn=False
):
    """``m`` frames of SEGMENT, optionally with an intact frame of another
    segment spliced in, a bit of frame 0's magic flipped, and a torn tail."""
    size = frame_size(N, K, checksum=checksum, version=version)
    data = bytearray(
        pack_blocks(random_batch(rng, m, SEGMENT), checksum=checksum, version=version)
    )
    if foreign_at is not None:
        at = min(foreign_at, m) * size
        data[at:at] = pack_blocks(
            random_batch(rng, 1, SEGMENT + 1), checksum=checksum, version=version
        )
    if damage_first and data:
        data[int(rng.integers(4))] ^= 1 << int(rng.integers(8))
    if torn:
        tail = int(rng.integers(1, size))
        data += rng.integers(0, 256, tail, dtype=np.uint8).tobytes()
    return bytes(data)


def expose_flag_flip(frame, checksum):
    """The documented difference: a cleared checksum flag is now caught.

    The per-frame path only rejects such a frame when its framing is
    damaged too, so the oracle is handed it with a damaged magic.
    """
    if checksum and not frame[5] & FLAG_CHECKSUM:
        return b"\x00" + frame[1:]
    return frame


def make_session(*, version=VERSION2, checksum=True, fault_plan=None):
    server = StreamingServer(GTX280, PROFILE, rng=np.random.default_rng(0))
    session = ClientSession(
        server,
        0,
        fault_plan=fault_plan,
        wire_version=version,
        checksum=checksum,
        max_retries=1_000,
        upstream=UPSTREAM,
    )
    session.begin_segment(SEGMENT)
    consumed = []
    decoder = session.decoder
    consume = decoder.consume_batch

    def recording(batch, *args, **kwargs):
        consumed.extend(batch.rows())
        return consume(batch, *args, **kwargs)

    decoder.consume_batch = recording
    return session, consumed


def make_uplink(*, version=VERSION2, checksum=True, fault_plan=None):
    server = StreamingServer(GTX280, PROFILE, rng=np.random.default_rng(0))
    relay = RelayNode(PROFILE, rng=np.random.default_rng(1))
    uplink = RelayUplink(
        server,
        relay,
        0,
        fault_plan=fault_plan,
        checksum=checksum,
        wire_version=version,
    )
    return uplink, relay


def relay_rows(relay):
    """The coefficient and payload rows a relay has buffered, in order."""
    if relay.held(SEGMENT) == 0:
        return np.empty((0, N), np.uint8), np.empty((0, K), np.uint8)
    recoder = relay._recoders[SEGMENT]
    held = recoder.buffered
    return recoder._coefficients[:held], recoder._payloads[:held]


def stacked(blocks):
    if not blocks:
        return np.empty((0, N), np.uint8), np.empty((0, K), np.uint8)
    return (
        np.stack([block.coefficients for block in blocks]),
        np.stack([block.payload for block in blocks]),
    )


def frame_payloads(wire, version, checksum, rows):
    """Payloads of the given frame indices, straight from the wire bytes."""
    size = frame_size(N, K, checksum=checksum, version=version)
    header = 18 if version == VERSION else 22
    return np.stack(
        [
            np.frombuffer(wire, np.uint8, K, row * size + header + N)
            for row in rows
        ]
    )


# -- hand-built rounds -----------------------------------------------------


def flag_and_magic_round():
    """8 v2 frames: frame 0's checksum flag cleared, frame 1's magic hit."""
    data = bytearray(
        build_round(np.random.default_rng(7), 8, version=VERSION2, checksum=True)
    )
    size = frame_size(N, K, checksum=True, version=VERSION2)
    data[5] ^= FLAG_CHECKSUM
    data[size] ^= 0x20
    return bytes(data)


def first_magic_round():
    data = bytearray(
        build_round(np.random.default_rng(8), 8, version=VERSION2, checksum=True)
    )
    data[2] ^= 0x01
    return bytes(data)


class TestDamagedRows:
    def test_client_rejects_cleared_checksum_flag(self):
        wire = flag_and_magic_round()
        session, consumed = make_session()
        session.intake(wire)
        stats = session.stats.wire
        assert stats.frames_ok == 6
        assert stats.checksum_failures + stats.malformed == 2
        assert stats.malformed == 2  # both are framing damage
        assert session.stats.frames_received == 8
        assert np.array_equal(
            stacked(consumed)[1], frame_payloads(wire, VERSION2, True, range(2, 8))
        )
        assert session.decoder.corruption_counts == {UPSTREAM: 2}

    def test_relay_rejects_cleared_checksum_flag(self):
        wire = flag_and_magic_round()
        uplink, relay = make_uplink()
        assert uplink.intake(SEGMENT, wire) == 6
        assert uplink.wire.frames_ok == 6
        assert uplink.wire.checksum_failures + uplink.wire.malformed == 2
        _, payloads = relay_rows(relay)
        assert np.array_equal(
            payloads, frame_payloads(wire, VERSION2, True, range(2, 8))
        )

    def test_damaged_first_header_drops_only_that_row(self):
        wire = first_magic_round()
        expected = frame_payloads(wire, VERSION2, True, range(1, 8))
        session, consumed = make_session()
        session.intake(wire)
        assert session.stats.wire.frames_ok == 7
        assert session.stats.wire.malformed == 1
        assert np.array_equal(stacked(consumed)[1], expected)
        uplink, relay = make_uplink()
        assert uplink.intake(SEGMENT, wire) == 7
        assert uplink.wire.malformed == 1
        assert np.array_equal(relay_rows(relay)[1], expected)

    def test_unexpected_checksum_flag_is_malformed(self):
        """Without trailers, a set checksum flag announces a longer frame
        than the receiver's geometry: the row is framing damage."""
        data = bytearray(
            build_round(
                np.random.default_rng(9), 8, version=VERSION2, checksum=False
            )
        )
        data[5] ^= FLAG_CHECKSUM
        expected = frame_payloads(bytes(data), VERSION2, False, range(1, 8))
        session, consumed = make_session(checksum=False)
        session.intake(bytes(data))
        assert session.stats.wire.malformed == 1
        assert np.array_equal(stacked(consumed)[1], expected)
        uplink, relay = make_uplink(checksum=False)
        assert uplink.intake(SEGMENT, bytes(data)) == 7
        assert uplink.wire.malformed == 1

    def test_both_receivers_record_the_unpack_span(self):
        wire = first_magic_round()
        session, _ = make_session()
        uplink, _ = make_uplink()
        with tracing():
            session.intake(wire)
            uplink.intake(SEGMENT, wire)
        names = [record.name for record in get_tracer().records()]
        get_tracer().clear()
        assert names.count("wire_unpack") == 2


# -- the oracle property ---------------------------------------------------


@st.composite
def rounds(draw):
    version = draw(st.sampled_from([VERSION, VERSION2]))
    checksum = draw(st.booleans())
    plan = None
    if draw(st.booleans()):
        plan = dict(
            seed=draw(st.integers(0, 2**31)),
            drop_rate=draw(st.sampled_from([0.0, 0.2, 0.5])),
            # Without a trailer a flipped bit is undetectable by design,
            # so corruption is only injected into protected frames.
            corrupt_rate=(
                draw(st.sampled_from([0.0, 0.3, 1.0])) if checksum else 0.0
            ),
            duplicate_rate=draw(st.sampled_from([0.0, 0.3])),
            reorder_window=draw(st.integers(0, 3)),
        )
    shapes = draw(
        st.lists(
            st.fixed_dictionaries(
                dict(
                    m=st.integers(0, 12),
                    foreign_at=st.none() | st.integers(0, 12),
                    damage_first=st.booleans(),
                    torn=st.booleans(),
                )
            ),
            min_size=1,
            max_size=3,
        )
    )
    return version, checksum, plan, shapes, draw(st.integers(0, 2**31))


@given(rounds())
@settings(max_examples=150, deadline=None)
def test_receivers_match_the_per_frame_path(case):
    version, checksum, plan_args, shapes, seed = case
    rng = np.random.default_rng(seed)
    wires = [
        build_round(rng, version=version, checksum=checksum, **shape)
        for shape in shapes
    ]
    size = frame_size(N, K, checksum=checksum, version=version)

    def plan():
        return None if plan_args is None else FaultPlan(**plan_args)

    # The oracle: the per-frame path, fed the same fault schedule.
    oracle_plan, mirror_plan = plan(), plan()
    oracle_stats = WireStats()
    oracle_decoder = ProgressiveDecoder(PARAMS, SEGMENT)
    relay_stats = WireStats()
    client_kept, relay_kept = [], []
    received = 0
    for wire in wires:
        frames = reference_split(wire, size, oracle_stats)
        if len(wire) % size:
            relay_stats.record_malformed()
        if oracle_plan is not None and frames:
            faulted = reference_apply_frames(oracle_plan, frames)
            matrix = np.frombuffer(b"".join(frames), np.uint8).reshape(-1, size)
            mirrored = mirror_plan.apply_frames(matrix)
            assert [row.tobytes() for row in mirrored] == faulted
            frames = faulted
        received += len(frames)
        frames = [expose_flag_flip(frame, checksum) for frame in frames]
        kept = reference_client_loop(
            frames, segment_id=SEGMENT, decoder=oracle_decoder, stats=oracle_stats
        )
        if kept and not oracle_decoder.is_complete:
            oracle_decoder.consume_batch(*stacked(kept), source=UPSTREAM)
            client_kept.extend(kept)
        relay_kept.extend(
            reference_relay_loop(frames, segment_id=SEGMENT, stats=relay_stats)
        )

    # The client.
    session, consumed = make_session(
        version=version, checksum=checksum, fault_plan=plan()
    )
    for wire in wires:
        session.intake(wire)
    stats = session.stats.wire
    assert stats.frames_ok == oracle_stats.frames_ok
    assert stats.frames_dropped == oracle_stats.frames_dropped
    assert session.stats.frames_received == received
    for got, want in zip(stacked(consumed), stacked(client_kept)):
        assert np.array_equal(got, want)
    decoder = session.decoder
    assert decoder.rank == oracle_decoder.rank
    assert decoder.corruption_counts == oracle_decoder.corruption_counts
    assert np.array_equal(
        decoder.dense_state()[0], oracle_decoder.dense_state()[0]
    )
    if plan_args is not None:
        assert session.fault_plan.log == oracle_plan.log

    # The relay.
    uplink, relay = make_uplink(
        version=version, checksum=checksum, fault_plan=plan()
    )
    for wire in wires:
        uplink.intake(SEGMENT, wire)
    assert uplink.wire.frames_ok == relay_stats.frames_ok
    assert uplink.wire.frames_dropped == relay_stats.frames_dropped
    for got, want in zip(relay_rows(relay), stacked(relay_kept)):
        assert np.array_equal(got, want)
