"""The cohort receive step against the per-session intake loop it replaced.

``receive_round`` verifies a whole cohort's round with one wire pass and
absorbs every receiver's rows with one elimination call.  Before, each
receiver ran ``ClientSession.intake`` on its own: one frame matrix, one
fault plan, one wire verify and one ``consume_batch``.  That loop
is pinned below, and the cohort step must leave every decoder, every
``SessionStats`` and ``WireStats``, every ``FaultPlan`` (log, counters
and random stream) and every retry clock exactly as the loop does, and
return the same innovative counts: over random cohorts, damaged and
duplicated deliveries, and receivers that complete or run out of
retries in the middle of a round.  It runs on the table oracle and on
the kernel at every SIMD level this host has.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RetryExhaustedError
from repro.faults import FaultPlan
from repro.gf256 import regionops
from repro.gf256.engine import ENGINE
from repro.gpu import GTX280
from repro.multicast import RelayNode, RelayUplink
from repro.rlnc import BlockBatch, CodingParams, Segment, wire
from repro.rlnc.wire import VERSION, VERSION2, frame_rows, pack_blocks
from repro.streaming import ClientSession, MediaProfile, StreamingServer
from repro.streaming.client import receive_round

PARAMS = CodingParams(4, 24)
PROFILE = MediaProfile(params=PARAMS)
N, K = PARAMS.num_blocks, PARAMS.block_size
SEGMENT = 3
UPSTREAM = "server"


# -- the per-session loop, pinned -------------------------------------------


def reference_unpack(frames, *, segment_id, checksum, version, stats):
    """One receiver's lenient unpack, before the cohort pass."""
    framed, intact, ours = wire._verify(frames, version, N, K, checksum, segment_id)
    ours &= intact
    m = len(frames)
    framed_count = int(np.count_nonzero(framed))
    intact_count = int(np.count_nonzero(intact))
    if framed_count < m:
        stats.record_malformed(m - framed_count)
    if intact_count < framed_count:
        stats.record_checksum_failure(framed_count - intact_count)
    if intact_count:
        stats.record_ok(intact_count)
    header_size = wire._header_struct(version).size
    kept = frames[ours]
    batch = BlockBatch(
        kept[:, header_size : header_size + N],
        kept[:, header_size + N : header_size + N + K],
        segment_id,
    )
    return batch, intact_count - len(batch)


def reference_intake(session, wire_bytes):
    """``ClientSession.intake`` before the cohort receive step."""
    decoder = session._require_segment()
    session.stats.rounds += 1
    session._segment_rounds += 1
    if session._segment_rounds > session.max_rounds_per_segment:
        raise RetryExhaustedError(
            f"segment {session._segment_id} exceeded "
            f"{session.max_rounds_per_segment} rounds"
        )
    frames = frame_rows(wire_bytes, session._frame_bytes, session.stats.wire)
    if session.fault_plan is not None and len(frames):
        frames = session.fault_plan.apply_frames(frames)
    batch, foreign = reference_unpack(
        frames,
        segment_id=session._segment_id,
        checksum=session.checksum,
        version=session.wire_version,
        stats=session.stats.wire,
    )
    received = len(frames)
    session.stats.frames_received += received
    if foreign:
        session.stats.wire.record_malformed(foreign)
    decoder.record_corrupt(session.upstream, received - len(batch))
    innovative = 0
    if len(batch):
        if decoder.is_complete:
            session.stats.blocks_discarded += len(batch)
        else:
            innovative = decoder.consume_batch(batch, source=session.upstream)
            session.stats.blocks_innovative += innovative
            session.stats.blocks_discarded += len(batch) - innovative
    if session._idle_round:
        session._idle_round = False
    elif innovative > 0 or decoder.is_complete:
        session._retries = 0
        session._backoff = session.base_backoff_rounds
    else:
        session._register_miss()
    return innovative


# -- worlds -------------------------------------------------------------------


def backends():
    yield pytest.param("table", -1, id="table")
    for level in range(len(regionops.SIMD_LEVELS) - 1, -1, -1):
        yield pytest.param("wide", level, id=regionops.SIMD_LEVELS[level])


@contextlib.contextmanager
def engine_at(backend, level):
    """Run the process-wide engine on one backend (and SIMD level)."""
    if backend == "table":
        ENGINE.set_backend("table")
        try:
            yield
        finally:
            ENGINE.set_backend("wide")
        return
    if not regionops.kernel_available():
        pytest.skip(f"wide kernel unavailable: {regionops.load_error()}")
    if regionops.simd_level() < level:
        pytest.skip(f"host lacks {regionops.SIMD_LEVELS[level]}")
    with regionops._cap_simd_level_for_tests(level):
        yield


def make_world(specs):
    """One server with the segment, and one session per receiver spec."""
    server = StreamingServer(GTX280, PROFILE, rng=np.random.default_rng(0))
    server.publish(Segment.random(PARAMS, np.random.default_rng(1), SEGMENT))
    sessions = []
    for peer_id, spec in enumerate(specs):
        plan = spec["plan"]
        session = ClientSession(
            server,
            peer_id,
            fault_plan=None if plan is None else FaultPlan(**plan),
            max_retries=spec["max_retries"],
            max_rounds_per_segment=spec["max_rounds"],
            wire_version=spec["version"],
            checksum=spec["checksum"],
            upstream=UPSTREAM,
        )
        session.begin_segment(SEGMENT)
        sessions.append(session)
    return sessions


def state_of(session):
    """Everything the receive step may change, in comparable form."""
    decoder = session.decoder
    rows, pivots = decoder.dense_state()
    plan = session.fault_plan
    return {
        "rows": rows.copy(),
        "pivots": pivots,
        "decoder": (
            decoder.rank,
            decoder.received,
            decoder.discarded,
            decoder.corruption_counts,
        ),
        "stats": session.stats.snapshot(),
        "clock": (
            session._segment_rounds,
            session._retries,
            session._cooldown,
            session._backoff,
            session._idle_round,
        ),
        "plan": None
        if plan is None
        else (
            list(plan.log),
            plan.counters,
            plan.items_seen,
            plan._rng.bit_generator.state,
        ),
    }


def assert_same(mine, theirs):
    for left, right in zip(mine, theirs):
        a, b = state_of(left), state_of(right)
        assert np.array_equal(a.pop("rows"), b.pop("rows"))
        assert a == b


def make_specs(rng, receivers, version, checksum, mixed, max_retries, max_rounds):
    specs = []
    for _ in range(receivers):
        plan = None
        if rng.random() < 0.7:
            delay = float(rng.choice([0.0, 0.3]))
            plan = dict(
                seed=int(rng.integers(2**31)),
                drop_rate=float(rng.choice([0.0, 0.2])),
                corrupt_rate=float(rng.choice([0.0, 0.25])),
                duplicate_rate=float(rng.choice([0.0, 0.3])),
                delay_rate=delay,
                max_delay=2 if delay else 0,
                reorder_window=int(rng.choice([0, 2])),
            )
        specs.append(
            dict(
                plan=plan,
                max_retries=max_retries,
                max_rounds=max_rounds,
                version=version,
                checksum=bool(rng.random() < 0.5) if mixed else checksum,
            )
        )
    return specs


def make_delivery(rng, spec, pool):
    """A receiver's slice of a round: ``None``, empty, or damaged frames.

    Rows are fresh, or repeats of rows delivered before (to another
    receiver this round, or in an earlier round); a frame of another
    segment and a torn tail are spliced in at random.
    """
    kind = rng.integers(6)
    if kind == 0:
        return None
    if kind == 1:
        return b""
    m = int(rng.integers(1, 7))
    coefficients = rng.integers(0, 256, size=(m, N), dtype=np.uint8)
    payloads = rng.integers(0, 256, size=(m, K), dtype=np.uint8)
    for row in range(m):
        if pool and rng.random() < 0.3:
            coefficients[row], payloads[row] = pool[int(rng.integers(len(pool)))]
    pool.extend(zip(coefficients.copy(), payloads.copy()))
    settings_ = dict(checksum=spec["checksum"], version=spec["version"])
    data = bytearray(
        pack_blocks(BlockBatch(coefficients, payloads, SEGMENT), **settings_)
    )
    if rng.random() < 0.3:
        size = len(data) // m
        at = int(rng.integers(m + 1)) * size
        foreign = BlockBatch(coefficients[:1], payloads[:1], SEGMENT + 1)
        data[at:at] = pack_blocks(foreign, **settings_)
    if rng.random() < 0.2:
        data += bytes(int(rng.integers(1, 9)))
    return bytes(data)


def run_both(specs, deliveries_per_round, *, isolate):
    """Drive the cohort step and the pinned loop side by side."""
    mine, theirs = make_world(specs), make_world(specs)
    out = {True: set(), False: set()}
    for deliveries in deliveries_per_round:
        for world in (mine, theirs):
            for index, session in enumerate(world):
                if index not in out[world is mine]:
                    session.pre_round()
        live = [index for index in range(len(specs)) if index not in out[True]]
        assert live == [i for i in range(len(specs)) if i not in out[False]]
        error_mine = error_theirs = None
        got = expected = None
        try:
            got = receive_round(
                [mine[i] for i in live],
                [deliveries[i] for i in live],
                on_exhausted=(
                    (lambda session, _: out[True].add(session.peer_id))
                    if isolate
                    else None
                ),
            )
        except RetryExhaustedError as error:
            error_mine = str(error)
        expected = []
        try:
            for i in live:
                try:
                    expected.append(reference_intake(theirs[i], deliveries[i]))
                except RetryExhaustedError:
                    if not isolate:
                        raise
                    out[False].add(i)
                    expected.append(0)
        except RetryExhaustedError as error:
            error_theirs = str(error)
        assert error_mine == error_theirs
        assert out[True] == out[False]
        assert_same(mine, theirs)
        if error_mine is not None:
            return
        assert got == expected


class TestAgainstThePerSessionLoop:
    @pytest.mark.parametrize("backend, level", backends())
    @settings(max_examples=30, deadline=None)
    @given(
        receivers=st.integers(1, 9),
        rounds=st.integers(1, 4),
        version=st.sampled_from([VERSION, VERSION2]),
        checksum=st.booleans(),
        mixed=st.booleans(),
        max_retries=st.integers(1, 3),
        max_rounds=st.integers(1, 5),
        isolate=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_cohort_matches_the_loop(
        self,
        backend,
        level,
        receivers,
        rounds,
        version,
        checksum,
        mixed,
        max_retries,
        max_rounds,
        isolate,
        seed,
    ):
        rng = np.random.default_rng(seed)
        specs = make_specs(
            rng, receivers, version, checksum, mixed, max_retries, max_rounds
        )
        pool = []
        deliveries = [
            [make_delivery(rng, spec, pool) for spec in specs] for _ in range(rounds)
        ]
        with engine_at(backend, level):
            run_both(specs, deliveries, isolate=isolate)


# -- stalls in the middle of a cohort ---------------------------------------


def good_round(rng, count):
    """``count`` frames of fresh rows: innovative for a fresh decoder."""
    batch = BlockBatch(
        rng.integers(0, 256, size=(count, N), dtype=np.uint8),
        rng.integers(0, 256, size=(count, K), dtype=np.uint8),
        SEGMENT,
    )
    return bytes(pack_blocks(batch, version=VERSION2))


def stall_specs(overrides):
    specs = []
    for index in range(6):
        spec = dict(
            plan=dict(seed=40 + index, drop_rate=0.3, corrupt_rate=0.2),
            max_retries=8,
            max_rounds=50,
            version=VERSION2,
            checksum=True,
        )
        spec.update(overrides.get(index, {}))
        specs.append(spec)
    return specs


class TestStallParity:
    def test_retry_exhaustion_mid_cohort(self):
        # Receiver 2 has one retry: its first empty round is a miss, and
        # the second ends the fetch.  Receivers 3-5 must see no fault
        # plan draw in the round it raises, as in the loop.
        rng = np.random.default_rng(7)
        specs = stall_specs({2: dict(max_retries=1, plan=None)})
        rounds = []
        for _ in range(4):
            deliveries = [good_round(rng, 1) for _ in specs]
            deliveries[2] = None
            rounds.append(deliveries)
        run_both(specs, rounds, isolate=False)

    def test_round_limit_mid_cohort(self):
        # Receiver 3 may take part in one round only: the second raises
        # before its frames are viewed, after 0-2 settled, before 4-5.
        rng = np.random.default_rng(8)
        specs = stall_specs({3: dict(max_rounds=1)})
        rounds = [[good_round(rng, 1) for _ in specs] for _ in range(3)]
        run_both(specs, rounds, isolate=False)

    def test_raise_leaves_later_plans_untouched(self):
        specs = stall_specs({1: dict(max_rounds=1)})
        sessions = make_world(specs)
        rng = np.random.default_rng(9)
        receive_round(sessions, [good_round(rng, 2) for _ in specs])
        seen = [session.fault_plan.items_seen for session in sessions]
        with pytest.raises(RetryExhaustedError):
            receive_round(sessions, [good_round(rng, 2) for _ in specs])
        after = [session.fault_plan.items_seen for session in sessions]
        assert after[0] == seen[0] + 2
        assert after[1:] == seen[1:]

    def test_isolated_exhaustion_lets_the_round_go_on(self):
        rng = np.random.default_rng(10)
        specs = stall_specs({2: dict(max_rounds=1), 4: dict(max_rounds=1)})
        rounds = [[good_round(rng, 1) for _ in specs] for _ in range(3)]
        run_both(specs, rounds, isolate=True)


def test_two_uplinks_into_one_relay_match_two_intakes():
    """Receivers feeding one decoder split the cohort: the second sees
    the rank the first left."""
    rng = np.random.default_rng(11)
    deliveries = [good_round(rng, 3), good_round(rng, 3)]
    results = []
    for cohort in (True, False):
        server = StreamingServer(GTX280, PROFILE, rng=np.random.default_rng(0))
        relay = RelayNode(PROFILE, rng=np.random.default_rng(1))
        uplinks = [RelayUplink(server, relay, peer) for peer in range(2)]
        for uplink in uplinks:
            uplink.begin_segment(SEGMENT)
        if cohort:
            kept = receive_round(uplinks, deliveries)
        else:
            kept = [uplink.intake(data) for uplink, data in zip(uplinks, deliveries)]
        rows, _ = relay._recoders[SEGMENT].decoder.dense_state()
        results.append((kept, rows.copy(), relay.stats.snapshot()))
    (kept_a, rows_a, stats_a), (kept_b, rows_b, stats_b) = results
    assert kept_a == kept_b == [3, 1]
    assert np.array_equal(rows_a, rows_b)
    assert stats_a == stats_b
