"""Before/after microbenchmarks for the engine-layer hot paths.

Unlike the figure benchmarks (model-derived, deterministic), this file
measures the *real* wall clock of the three hot paths the GF(2^8) engine
rewrote — batch encode, progressive decode, and the raw matmul — against
the pinned seed-era formulations, asserts the PR's speedup floors, and
proves byte-exactness in the same run.  The measured trajectory is
written to ``BENCH_hot_paths.json`` at the repo root so successive PRs
accumulate a performance history.

Set ``REPRO_HOT_PATH_SMOKE=1`` (the CI smoke job) to run tiny shapes and
skip the speedup-floor assertions: small shapes sit below the engine's
amortization break-even, so only exactness is meaningful there.

The file intentionally uses explicit ``perf_counter`` best-of-N timing
rather than the ``benchmark`` fixture: the speedup ratios must exist
even under ``--benchmark-disable`` (which runs fixtures once, untimed).
"""

import json
import os
import pathlib
import statistics
import time

import numpy as np

from repro.gf256 import matmul
from repro.gf256.engine import ENGINE, Gf256Engine
from repro.gpu import GTX280
from repro.kernels import EncodeScheme, GpuEncoder
from repro.rlnc import CodingParams, Encoder, ProgressiveDecoder, Segment
from repro.rlnc._reference import ReferenceProgressiveDecoder
from repro.streaming import MediaProfile, StreamingServer

ARTIFACT = pathlib.Path(__file__).parent.parent / "BENCH_hot_paths.json"

SMOKE = os.environ.get("REPRO_HOT_PATH_SMOKE") == "1"

#: Acceptance shapes (full mode) vs CI smoke shapes.
DECODE_N, DECODE_K = (32, 512) if SMOKE else (128, 4096)
ENCODE_M, ENCODE_N, ENCODE_K = (48, 32, 512) if SMOKE else (256, 128, 4096)
SERVER_SESSIONS, SERVER_BLOCKS_PER_PEER = (8, 2) if SMOKE else (64, 4)
CLUSTER_SEGMENTS, CLUSTER_PEERS, CLUSTER_ROUNDS = (
    (4, 8, 2) if SMOKE else (16, 32, 4)
)
LOADTEST_SESSIONS, LOADTEST_ROUNDS, LOADTEST_MAX_WORKERS = (
    (10_000, 60, 2) if SMOKE else (100_000, 200, 16)
)
REPEATS = 1 if SMOKE else 3
#: Back-to-back plain/digest round pairs behind the integrity overhead.
INTEGRITY_PAIRS = 2 if SMOKE else 15

#: Speedup floors from the PR acceptance criteria (full mode only).
DECODE_SPEEDUP_FLOOR = 3.0
ENCODE_SPEEDUP_FLOOR = 2.0
#: Recalibrated with the wide backend: per-request serving is no longer
#: encode-bound, so batching's margin collapsed from ~11x to ~1.1x while
#: absolute round throughput quadrupled (the regression gate holds the
#: absolute number).  Batched rounds must simply never lose to
#: per-request serving.
SERVER_ROUND_SPEEDUP_FLOOR = 1.0
CLUSTER_SCALEOUT_FLOOR = 1.6
#: wide matmul vs the seed-era auto choice (bitslice at the acceptance
#: shape, pinned below as seed_bitslice_matmul), asserted only when the
#: compiled kernel actually loaded.
WIDE_SPEEDUP_FLOOR = 5.0

#: Measured wall-clock floors for the multiprocess substrate.  Only
#: asserted (and only gated by check_bench_regression.py) when the host
#: actually has the cores — ``wall_gate`` in the recorded payload.
WALL_SPEEDUP_FLOOR_W2 = 1.3
WALL_SPEEDUP_FLOOR_W4 = 1.5

#: Self-healing ceilings (lower is better), enforced only under
#: ``failover_gate`` — full mode on a >= 4-core host, like the wall
#: floors: a crash must be noticed within a second, healed within a
#: bounded number of degraded rounds, and the outage must not blow up
#: the mean round time by more than the slowdown ceiling.
FAILOVER_DETECTION_SECONDS_CEILING = 1.0
FAILOVER_RECOVERY_ROUNDS_CEILING = 50.0
FAILOVER_DEGRADED_SLOWDOWN_CEILING = 25.0

#: Load-harness acceptance (full mode): the modelled population must
#: actually reach six figures, the flash crowd's queueing must stay
#: bounded (p99 admission delay in rounds), and the autoscaler must
#: have acted at least once in each direction.
LOADTEST_PEAK_SESSIONS_FLOOR = 100_000
LOADTEST_DELAY_P99_CEILING = 32.0

#: Multicast pipelining acceptance.  Both figures are modelled
#: (cost-model) time, deterministic and machine-independent, so they
#: are asserted in smoke mode too: the pipelined wall must beat the
#: lock-step wall by >= 1.33x, and the cycle-level timeline's per-stage
#: prediction must land within 20% of what the run actually ledgered.
MULTICAST_OVERLAP_FLOOR = 1.33
MULTICAST_STAGE_ERROR_CEILING = 0.20

_results: dict[str, object] = {
    "smoke": SMOKE,
    "shapes": {
        "decode": {"n": DECODE_N, "k": DECODE_K},
        "encode": {"m": ENCODE_M, "n": ENCODE_N, "k": ENCODE_K},
        "server_round": {
            "n": DECODE_N,
            "k": DECODE_K,
            "sessions": SERVER_SESSIONS,
            "blocks_per_peer": SERVER_BLOCKS_PER_PEER,
        },
        "cluster_scaleout": {
            "n": DECODE_N,
            "k": DECODE_K,
            "segments": CLUSTER_SEGMENTS,
            "peers": CLUSTER_PEERS,
            "rounds_per_pass": CLUSTER_ROUNDS,
        },
        "loadtest_scale": {
            "target_sessions": LOADTEST_SESSIONS,
            "rounds": LOADTEST_ROUNDS,
            "max_workers": LOADTEST_MAX_WORKERS,
        },
    },
}


def best_of(fn, repeats=REPEATS):
    """Best-of-N wall time in seconds (minimum over repeats)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def record(section: str, payload: dict) -> None:
    _results[section] = payload
    ARTIFACT.write_text(json.dumps(_results, indent=2, sort_keys=True) + "\n")


def test_progressive_decode_before_after():
    params = CodingParams(DECODE_N, DECODE_K)
    rng = np.random.default_rng(0)
    segment = Segment.random(params, rng)
    blocks = Encoder(segment, rng).encode_blocks(DECODE_N + 4)

    def run(cls):
        decoder = cls(params)
        for block in blocks:
            if decoder.is_complete:
                break
            decoder.consume(block)
        return decoder

    # Byte-exactness first, on the same stream the timing uses.
    reference = run(ReferenceProgressiveDecoder)
    current = run(ProgressiveDecoder)
    ref_rows, ref_pivots = reference.dense_state()
    new_rows, new_pivots = current.dense_state()
    exact = bool(
        np.array_equal(ref_rows, new_rows)
        and ref_pivots == new_pivots
        and np.array_equal(
            reference.recover_segment().blocks,
            current.recover_segment().blocks,
        )
    )
    assert exact

    ref_seconds = best_of(lambda: run(ReferenceProgressiveDecoder))
    new_seconds = best_of(lambda: run(ProgressiveDecoder))
    speedup = ref_seconds / new_seconds
    segment_mb = params.segment_bytes / 1e6
    record(
        "progressive_decode",
        {
            "ref_seconds": ref_seconds,
            "new_seconds": new_seconds,
            "speedup": speedup,
            "mb_per_s_before": segment_mb / ref_seconds,
            "mb_per_s_after": segment_mb / new_seconds,
            "byte_exact": exact,
        },
    )
    if not SMOKE:
        assert speedup >= DECODE_SPEEDUP_FLOOR, (
            f"decode speedup {speedup:.2f}x below the "
            f"{DECODE_SPEEDUP_FLOOR}x floor"
        )


def test_batch_encode_before_after():
    rng = np.random.default_rng(1)
    blocks = rng.integers(
        0, 256, size=(ENCODE_N, ENCODE_K), dtype=np.uint8
    )
    coefficients = rng.integers(
        1, 256, size=(ENCODE_M, ENCODE_N), dtype=np.uint8
    )
    seed_engine = Gf256Engine("table")  # the seed formulation, pinned

    expected = seed_engine.matmul(coefficients, blocks)
    got = ENGINE.matmul(coefficients, blocks)
    exact = bool(np.array_equal(expected, got))
    assert exact

    ref_seconds = best_of(lambda: seed_engine.matmul(coefficients, blocks))
    new_seconds = best_of(lambda: ENGINE.matmul(coefficients, blocks))
    speedup = ref_seconds / new_seconds
    coded_mb = ENCODE_M * ENCODE_K / 1e6
    record(
        "batch_encode",
        {
            "ref_seconds": ref_seconds,
            "new_seconds": new_seconds,
            "speedup": speedup,
            "mb_per_s_before": coded_mb / ref_seconds,
            "mb_per_s_after": coded_mb / new_seconds,
            "byte_exact": exact,
        },
    )
    if not SMOKE:
        assert speedup >= ENCODE_SPEEDUP_FLOOR, (
            f"encode speedup {speedup:.2f}x below the "
            f"{ENCODE_SPEEDUP_FLOOR}x floor"
        )


def seed_bitslice_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The seed-era ``auto`` pick at the acceptance shape, pinned.

    Per source row, build the table of all 256 multiples with seven XOR
    doubling passes (``c*row`` for ``c`` in ``2^j..2^(j+1)-1`` is
    ``(c-2^j)*row ^ x^j*row``), then resolve a whole output column with
    one contiguous row gather.  The engine no longer carries it; it is
    kept here, as ``repro.rlnc._reference`` keeps the seed decoder, so
    the wide speedup gate keeps measuring against the same baseline.
    """
    m, n = a.shape
    k = b.shape[1]
    out = np.zeros((m, k), dtype=np.uint8)
    table = np.empty((256, k), dtype=np.uint8)
    for i in range(n):
        table[0] = 0
        table[1] = doubled = b[i]
        for j in range(1, 8):
            doubled = (doubled << 1) ^ (((doubled >> 7) & 1) * np.uint8(0x1B))
            size = 1 << j
            table[size] = doubled
            np.bitwise_xor(
                table[1:size], doubled, out=table[size + 1 : 2 * size]
            )
        out ^= table[a[:, i]]
    return out


def test_matmul_backend_throughput():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 256, size=(ENCODE_M, ENCODE_N), dtype=np.uint8)
    b = rng.integers(0, 256, size=(ENCODE_N, ENCODE_K), dtype=np.uint8)
    out_bytes = ENCODE_M * ENCODE_K
    # Region-op microbench: 256 fused dst ^= c*src passes over one
    # block-sized row, the decoder's forward-reduction inner loop.
    region_src = rng.integers(0, 256, size=ENCODE_K, dtype=np.uint8)
    region_coefficients = [(i % 255) + 1 for i in range(256)]
    region_bytes = len(region_coefficients) * ENCODE_K
    per_backend = {}
    baseline = seed_bitslice_matmul(a, b)
    for backend in ("table", "wide"):
        engine = Gf256Engine(backend)
        assert np.array_equal(engine.matmul(a, b), baseline)
        seconds = best_of(lambda: engine.matmul(a, b))
        region_dst = rng.integers(0, 256, size=ENCODE_K, dtype=np.uint8)

        def region_pass():
            for coefficient in region_coefficients:
                engine.mul_add_region(region_dst, region_src, coefficient)

        region_seconds = best_of(region_pass)
        per_backend[backend] = {
            "seconds": seconds,
            "gb_per_s": out_bytes / seconds / 1e9,
            "region_gb_per_s": region_bytes / region_seconds / 1e9,
        }
    # The process-wide engine's default path (the key keeps its
    # historical name from when the default was a per-shape choice).
    auto_seconds = best_of(lambda: matmul(a, b))
    # The seed-era auto pick at this shape was bitslice; the wide gate
    # is measured against its pinned copy, on the same host and operands.
    seed_seconds = best_of(lambda: seed_bitslice_matmul(a, b))
    wide_speedup = seed_seconds / per_backend["wide"]["seconds"]
    wide_kernel = bool(ENGINE.wide_kernel_available)
    record(
        "matmul_backends",
        {
            "backends": per_backend,
            "auto_seconds": auto_seconds,
            "auto_gb_per_s": out_bytes / auto_seconds / 1e9,
            "seed_bitslice_seconds": seed_seconds,
            "wide_gb_per_s": per_backend["wide"]["gb_per_s"],
            "wide_region_gb_per_s": per_backend["wide"]["region_gb_per_s"],
            "wide_speedup_vs_seed_auto": wide_speedup,
            "wide_kernel": wide_kernel,
        },
    )
    if not SMOKE:
        # The default path must track the best backend within noise.
        best = min(entry["seconds"] for entry in per_backend.values())
        assert auto_seconds <= best * 1.5
        if wide_kernel:
            assert wide_speedup >= WIDE_SPEEDUP_FLOOR, (
                f"wide speedup {wide_speedup:.2f}x below the "
                f"{WIDE_SPEEDUP_FLOOR}x floor"
            )


def test_server_round_throughput():
    """Batched serving rounds vs the per-request serve() baseline.

    The acceptance shape is the paper's reference geometry with 64
    concurrent sessions each asking for a few blocks — the regime where
    per-request encode launches dominate and coalescing pays.  Smoke
    shapes sit below the batching break-even, so the floor only applies
    in full mode.
    """
    params = CodingParams(DECODE_N, DECODE_K)
    profile = MediaProfile(params=params)
    segment = Segment.random(params, np.random.default_rng(11), segment_id=0)

    def make_server():
        server = StreamingServer(
            GTX280, profile, rng=np.random.default_rng(12)
        )
        server.publish_segment(segment)
        for peer in range(SERVER_SESSIONS):
            server.connect(peer)
        return server

    baseline_server = make_server()

    def baseline_pass():
        for peer in range(SERVER_SESSIONS):
            baseline_server.serve(peer, 0, SERVER_BLOCKS_PER_PEER)

    round_server = make_server()

    def round_pass():
        for peer in range(SERVER_SESSIONS):
            round_server.request_blocks(peer, 0, SERVER_BLOCKS_PER_PEER)
        round_server.serve_round(format="frames")

    # Byte-exactness: re-encode the round's coefficient rows through the
    # pre-change per-block path and demand identical payloads.
    exact_server = make_server()
    for peer in range(SERVER_SESSIONS):
        exact_server.request_blocks(peer, 0, SERVER_BLOCKS_PER_PEER)
    fanout = exact_server.serve_round()
    per_block = GpuEncoder(GTX280, EncodeScheme.TABLE_5)
    per_block.upload_segment(segment)
    exact = True
    for batches in fanout.values():
        (batch,) = batches
        for row in range(len(batch)):
            result = per_block.encode(
                segment,
                1,
                np.random.default_rng(0),
                coefficients=batch.coefficients[row : row + 1].copy(),
            )
            exact = exact and bool(
                np.array_equal(result.payloads[0], batch.payloads[row])
            )
    assert exact

    ref_seconds = best_of(baseline_pass)
    new_seconds = best_of(round_pass)
    speedup = ref_seconds / new_seconds
    round_bytes = SERVER_SESSIONS * SERVER_BLOCKS_PER_PEER * DECODE_K
    record(
        "server_round_throughput",
        {
            "sessions": SERVER_SESSIONS,
            "blocks_per_peer": SERVER_BLOCKS_PER_PEER,
            "ref_seconds": ref_seconds,
            "new_seconds": new_seconds,
            "speedup": speedup,
            "mb_per_s_before": round_bytes / ref_seconds / 1e6,
            "mb_per_s_after": round_bytes / new_seconds / 1e6,
            "model_effective_mb_per_s_before": (
                baseline_server.stats.effective_bandwidth / 1e6
            ),
            "model_effective_mb_per_s_after": (
                round_server.stats.effective_bandwidth / 1e6
            ),
            "byte_exact": exact,
        },
    )
    if not SMOKE:
        assert speedup >= SERVER_ROUND_SPEEDUP_FLOOR, (
            f"serving-round speedup {speedup:.2f}x below the "
            f"{SERVER_ROUND_SPEEDUP_FLOOR}x floor"
        )


def test_wire_integrity_overhead():
    """Cost of the integrity trailer on the serve_round path.

    The acceptance criterion for the fault-tolerance PR: checksumming
    every frame of a serving round may add at most 10% to the time the
    server spends producing that round's batches (encode + pack).  Three
    full round passes are timed — v2 digest trailer, v1 per-row CRC32,
    and no trailer at all — on the same 64-session x 4-block round shape
    as ``test_server_round_throughput``.  The gated overhead is the
    median over plain/digest pairs timed back to back.

    Raw ``pack_blocks`` microbenchmarks at the same batch shape are
    recorded alongside so the trailer cost is visible in isolation: the
    no-trailer pack is three strided memcpys, the v2 digest is one
    vectorized multiply-accumulate pass, and the v1 CRC is a per-row
    zlib call (the reason v2 exists).
    """
    from repro.rlnc import BlockBatch, pack_blocks, stream_size
    from repro.rlnc.wire import VERSION, VERSION2

    params = CodingParams(DECODE_N, DECODE_K)
    profile = MediaProfile(params=params)
    segment = Segment.random(params, np.random.default_rng(21), segment_id=0)

    def make_server():
        server = StreamingServer(
            GTX280, profile, rng=np.random.default_rng(22)
        )
        server.publish_segment(segment)
        for peer in range(SERVER_SESSIONS):
            server.connect(peer)
        return server

    def round_pass(server, *, checksum, version):
        for peer in range(SERVER_SESSIONS):
            server.request_blocks(peer, 0, SERVER_BLOCKS_PER_PEER)
        server.serve_round(format="frames", checksum=checksum, version=version)

    plain_server = make_server()
    digest_server = make_server()
    crc_server = make_server()

    def plain_pass():
        round_pass(plain_server, checksum=False, version=VERSION2)

    def digest_pass():
        round_pass(digest_server, checksum=True, version=VERSION2)

    # The overhead is gated on pairs timed back to back, the order
    # alternating pair by pair, so host drift between two separately
    # timed blocks cannot move it: the median of the per-pair ratios.
    plain_times, digest_times = [], []
    for pair in range(INTEGRITY_PAIRS):
        plain_first = pair % 2 == 0
        for plain in (plain_first, not plain_first):
            if plain:
                plain_times.append(best_of(plain_pass, repeats=1))
            else:
                digest_times.append(best_of(digest_pass, repeats=1))
    round_plain = min(plain_times)
    round_digest = min(digest_times)
    round_crc = best_of(
        lambda: round_pass(crc_server, checksum=True, version=VERSION)
    )
    checksum_cost = statistics.median(
        digest - plain for plain, digest in zip(plain_times, digest_times)
    )
    serve_round_overhead = statistics.median(
        (digest - plain) / digest
        for plain, digest in zip(plain_times, digest_times)
    )

    # Pack-only microbenchmarks at the same total batch shape.
    m = SERVER_SESSIONS * SERVER_BLOCKS_PER_PEER
    n, k = DECODE_N, DECODE_K
    rng = np.random.default_rng(23)
    batch = BlockBatch(
        coefficients=rng.integers(0, 256, size=(m, n), dtype=np.uint8),
        payloads=rng.integers(0, 256, size=(m, k), dtype=np.uint8),
        segment_id=0,
    )
    plain_out = bytearray(stream_size(m, n, k, checksum=False, version=VERSION2))
    digest_out = bytearray(stream_size(m, n, k, checksum=True, version=VERSION2))
    crc_out = bytearray(stream_size(m, n, k, checksum=True))
    pack_plain = best_of(
        lambda: pack_blocks(
            batch, checksum=False, version=VERSION2, out=plain_out
        )
    )
    pack_digest = best_of(
        lambda: pack_blocks(
            batch, checksum=True, version=VERSION2, out=digest_out
        )
    )
    pack_crc = best_of(lambda: pack_blocks(batch, checksum=True, out=crc_out))

    record(
        "wire_integrity_overhead",
        {
            "frames": m,
            "n": n,
            "k": k,
            "serve_round_plain_seconds": round_plain,
            "serve_round_digest_seconds": round_digest,
            "serve_round_crc32_seconds": round_crc,
            "checksum_cost_seconds": checksum_cost,
            "serve_round_overhead_ratio": serve_round_overhead,
            "pack_plain_seconds": pack_plain,
            "pack_digest_seconds": pack_digest,
            "pack_crc32_seconds": pack_crc,
            "digest_vs_crc32_pack_ratio": pack_digest / pack_crc,
            "digest_mb_per_s": m * k / (pack_digest - pack_plain) / 1e6,
        },
    )
    if not SMOKE:
        # Budget recalibrated with the wide backend: the digest's cost
        # is fixed (~1.4 ms per 256-frame round) but the round itself
        # got ~4.5x faster, so the same absolute cost is a larger
        # fraction.  The absolute digest throughput is still gated by
        # the regression check on digest_mb_per_s inputs.
        assert serve_round_overhead <= 0.25, (
            f"v2 digest adds {serve_round_overhead:.1%} to the "
            f"serve_round path, above the 25% integrity budget"
        )
        # The vectorized digest must not be slower than the per-row CRC
        # it supersedes.
        assert pack_digest <= pack_crc, (
            f"v2 digest pack ({pack_digest * 1e6:.0f}us) is slower than "
            f"the v1 CRC32 pack ({pack_crc * 1e6:.0f}us)"
        )


def test_observability_overhead():
    """The span tracer's cost on the serve-round hot path.

    Acceptance: tracing *enabled* may add at most 2% to the batched
    serve-round wall time, and the *disabled* path must be near-free —
    one flag check and a shared no-op context manager per ``trace()``
    call site (measured here per call).  Byte-exactness rides along:
    the wire bytes a traced round produces are identical to an untraced
    round from the same seed, so instrumentation can never change
    results.
    """
    from repro.obs import get_tracer, trace, tracing, tracing_enabled

    assert not tracing_enabled()

    params = CodingParams(DECODE_N, DECODE_K)
    profile = MediaProfile(params=params)
    segment = Segment.random(params, np.random.default_rng(31), segment_id=0)

    def make_server():
        server = StreamingServer(
            GTX280, profile, rng=np.random.default_rng(32)
        )
        server.publish_segment(segment)
        for peer in range(SERVER_SESSIONS):
            server.connect(peer)
        return server

    def round_pass(server):
        for peer in range(SERVER_SESSIONS):
            server.request_blocks(peer, 0, SERVER_BLOCKS_PER_PEER)
        return server.serve_round(format="frames")

    # Byte-exactness: same seed, with and without tracing.
    plain = {
        peer: bytes(view) for peer, view in round_pass(make_server()).items()
    }
    with tracing():
        traced = {
            peer: bytes(view)
            for peer, view in round_pass(make_server()).items()
        }
    exact = plain == traced
    assert exact

    # Individual rounds on a loaded host jitter by tens of percent —
    # far above the ~0.05% the tracer actually adds — so differencing
    # two wall-clock measurements cannot resolve the 2% budget and is
    # recorded as a diagnostic only.  The budget itself is asserted on
    # the composed estimate below: (spans per round) x (measured
    # per-span enabled cost) against the round's timing floor, both of
    # which are individually stable.  ABBA interleaving per repeat
    # (disabled, enabled, enabled, disabled) keeps cache-warming and
    # load drift from favouring either side's floor.
    repeats = max(8 * REPEATS, 20)
    disabled_server = make_server()
    enabled_server = make_server()
    round_pass(disabled_server)  # warm both servers' encode caches
    with tracing():
        round_pass(enabled_server)

    def sample(server, traced):
        with tracing(traced):
            start = time.perf_counter()
            round_pass(server)
            return time.perf_counter() - start

    ratios = []
    disabled_seconds = enabled_seconds = float("inf")
    for _ in range(repeats):
        d1 = sample(disabled_server, False)
        e1 = sample(enabled_server, True)
        e2 = sample(enabled_server, True)
        d2 = sample(disabled_server, False)
        ratios.append((e1 + e2) / (d1 + d2))
        disabled_seconds = min(disabled_seconds, d1, d2)
        enabled_seconds = min(enabled_seconds, e1, e2)
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2]
    overhead_ratio = enabled_seconds / disabled_seconds - 1.0

    # Disabled-path microbenchmark: cost of one instrumented call site.
    calls = 10_000 if SMOKE else 200_000

    def null_spans():
        for _ in range(calls):
            with trace("bench_null"):
                pass

    null_span_ns = best_of(null_spans, repeats=repeats) / calls * 1e9
    with tracing():
        enabled_span_ns = (
            best_of(null_spans, repeats=1 if SMOKE else 2) / calls * 1e9
        )

    # Count the spans one traced round actually opens, then compose the
    # budget check: spans/round x cost/span vs the round's timing floor.
    get_tracer().clear()
    with tracing():
        round_pass(enabled_server)
    spans_per_round = len(get_tracer().records())
    get_tracer().clear()
    composed_overhead = (
        spans_per_round * enabled_span_ns / (disabled_seconds * 1e9)
    )

    round_bytes = SERVER_SESSIONS * SERVER_BLOCKS_PER_PEER * DECODE_K
    record(
        "observability_overhead",
        {
            "disabled_seconds": disabled_seconds,
            "enabled_seconds": enabled_seconds,
            "overhead_ratio": overhead_ratio,
            "median_quad_ratio": median_ratio,
            "spans_per_round": spans_per_round,
            "composed_overhead": composed_overhead,
            "disabled_span_ns": null_span_ns,
            "enabled_span_ns": enabled_span_ns,
            "enabled_mb_per_s": round_bytes / enabled_seconds / 1e6,
            "disabled_mb_per_s": round_bytes / disabled_seconds / 1e6,
            "byte_exact": exact,
        },
    )
    if not SMOKE:
        assert composed_overhead < 0.02, (
            f"tracing adds {composed_overhead:.2%} to the serve-round path "
            f"({spans_per_round} spans x {enabled_span_ns:.0f}ns on a "
            f"{disabled_seconds * 1e3:.1f}ms round), above the 2% budget"
        )
        # Disabled call sites must stay in no-op territory: a branch plus
        # a shared context manager, well under 2us even on slow hosts.
        assert null_span_ns < 2_000, (
            f"disabled trace() costs {null_span_ns:.0f}ns per call site"
        )


def test_cached_log_segment_encode_block():
    # Single-block encodes on a warm encoder.  The section keeps its
    # historical name: the log-domain segment cache it once timed is gone.
    params = CodingParams(ENCODE_N, ENCODE_K)
    segment = Segment.random(params, np.random.default_rng(3))
    encoder = Encoder(segment, np.random.default_rng(4))
    encoder.encode_block()  # warm-up
    seconds = best_of(encoder.encode_block)
    record(
        "encode_block_cached_log",
        {
            "seconds": seconds,
            "mb_per_s": params.block_size / seconds / 1e6,
        },
    )


def test_cluster_scaleout():
    """Cluster scale-out at 1/2/4 workers: modelled AND measured.

    Two figures per worker count, from the two execution substrates:

    * **modelled** (serial substrate): the workers are independent
      simulated devices, so a cluster round costs the maximum of the
      per-worker modelled GPU deltas (critical path) and rounds/s is
      rounds over that accumulated time.  Deterministic and
      machine-independent; floored at >= 1.6x at 4 workers, which
      consistent-hash placement must clear despite imbalance
      (speedup = segments / max-loaded worker).
    * **measured** (parallel substrate): wall time of the identical
      pass with every worker a real OS process packing frames into its
      shared-memory ring.  ``wall_speedup_wN`` compares the parallel
      substrate against *itself* at one worker, so process/IPC overhead
      is inside the baseline and the ratio isolates scale-out.  Floors
      (1.3x @ 2, 1.5x @ 4) are asserted only when ``wall_gate`` — the
      host has >= 4 cores and this is a full run — since a one-core CI
      container can't (and shouldn't) witness parallel speedup.

    ``byte_exact`` records that the 4-worker parallel pass emitted
    frames byte-identical to the serial substrate before any timing is
    trusted.
    """
    from repro.cluster import ServingCluster
    from repro.rlnc.wire import VERSION2

    params = CodingParams(DECODE_N, DECODE_K)
    profile = MediaProfile(params=params)
    segments = [
        Segment.random(params, np.random.default_rng(40 + i), segment_id=i)
        for i in range(CLUSTER_SEGMENTS)
    ]

    def build(workers, parallel):
        cluster = ServingCluster(
            GTX280, profile, num_workers=workers, seed=13, parallel=parallel
        )
        for segment in segments:
            cluster.publish(segment)
        for peer in range(CLUSTER_PEERS):
            cluster.connect(peer)
        return cluster

    def one_pass(cluster, collect=False):
        collected = []
        for _ in range(CLUSTER_ROUNDS):
            for peer in range(CLUSTER_PEERS):
                cluster.request_blocks(
                    peer, peer % CLUSTER_SEGMENTS, SERVER_BLOCKS_PER_PEER
                )
            frames = cluster.serve_round(format="frames", version=VERSION2)
            if collect:
                collected.append(
                    {peer: bytes(data) for peer, data in frames.items()}
                )
        return collected

    cpu_count = os.cpu_count() or 1
    wall_gate = not SMOKE and cpu_count >= 4
    payload: dict[str, object] = {
        "segments": CLUSTER_SEGMENTS,
        "peers": CLUSTER_PEERS,
        "rounds": CLUSTER_ROUNDS,
        "cpu_count": cpu_count,
        "wall_gate": wall_gate,
    }

    # Byte-exactness across substrates before any timing is trusted.
    with build(4, parallel=True) as mirror:
        reference = build(4, parallel=False)
        serial_frames = one_pass(reference, collect=True)
        parallel_frames = one_pass(mirror, collect=True)
    payload["byte_exact"] = serial_frames == parallel_frames
    assert payload["byte_exact"], (
        "parallel substrate diverged from the serial reference"
    )

    model_rounds_per_s: dict[int, float] = {}
    for workers in (1, 2, 4):
        cluster = build(workers, parallel=False)
        wall_seconds = best_of(lambda: one_pass(cluster))
        stats = cluster.stats
        model_rounds_per_s[workers] = (
            stats.rounds_served / stats.gpu_parallel_seconds
        )
        payload[f"wall_seconds_w{workers}"] = wall_seconds
        payload[f"model_rounds_per_s_w{workers}"] = model_rounds_per_s[
            workers
        ]
        payload[f"model_speedup_w{workers}"] = (
            model_rounds_per_s[workers] / model_rounds_per_s[1]
        )

        with build(workers, parallel=True) as cluster:
            cluster.serve_round()  # warm the worker processes
            payload[f"parallel_wall_seconds_w{workers}"] = best_of(
                lambda: one_pass(cluster)
            )
    for workers in (2, 4):
        payload[f"wall_speedup_w{workers}"] = (
            payload["parallel_wall_seconds_w1"]
            / payload[f"parallel_wall_seconds_w{workers}"]
        )
    record("cluster_scaleout", payload)
    if not SMOKE:
        speedup = payload["model_speedup_w4"]
        assert speedup >= CLUSTER_SCALEOUT_FLOOR, (
            f"4-worker cluster serves rounds only {speedup:.2f}x faster "
            f"than 1 worker on the modelled timeline "
            f"(floor {CLUSTER_SCALEOUT_FLOOR}x)"
        )
    if wall_gate:
        for workers, floor in (
            (2, WALL_SPEEDUP_FLOOR_W2),
            (4, WALL_SPEEDUP_FLOOR_W4),
        ):
            measured = payload[f"wall_speedup_w{workers}"]
            assert measured >= floor, (
                f"{workers}-worker parallel substrate measured only "
                f"{measured:.2f}x wall speedup on a {cpu_count}-core "
                f"host (floor {floor}x)"
            )


def test_cluster_failover():
    """What self-healing costs: detection latency, recovery, slowdown.

    Runs the identical seeded NACK workload twice through a supervised
    parallel cluster — once clean, once with a :class:`ChaosPlan` that
    crashes a seed-drawn worker mid-round — and records what the healing
    cost:

    * ``detection_seconds`` — mean silent-to-detected latency over all
      failures (the window the cluster believed a dead worker healthy);
    * ``recovery_rounds`` — mean serve rounds the victim spent down
      before its replacement was serving again;
    * ``degraded_round_slowdown`` — mean wall seconds per round,
      chaotic run over clean run, so the outage's pacing + republish
      cost is visible as a ratio.

    ``byte_exact`` must hold unconditionally (recovery may cost rounds,
    never bytes).  The ceilings are enforced only under
    ``failover_gate`` — full mode on a >= 4-core host, exactly like the
    scale-out wall floors: a loaded one- or two-core runner measures
    scheduling noise, not supervision latency.
    """
    from repro.cluster import SupervisorConfig, run_cluster_workload
    from repro.faults import ChaosPlan

    cpu_count = os.cpu_count() or 1
    failover_gate = not SMOKE and cpu_count >= 4
    workers = 4 if cpu_count >= 4 else 2
    peers, segments = (8, 4) if SMOKE else (16, 8)
    params = CodingParams(8, 256) if SMOKE else CodingParams(32, 1024)
    config = SupervisorConfig(
        command_timeout=10.0,
        round_timeout=10.0,
        restart_budget=3,
        backoff_base=0.02,
        backoff_max=0.1,
    )

    def run(plan):
        return run_cluster_workload(
            num_workers=workers,
            num_peers=peers,
            num_segments=segments,
            params=params,
            seed=5,
            per_peer_round_quota=2,
            parallel=True,
            chaos_plan=plan,
            supervision=config,
        )

    clean = run(None)
    chaotic = run(
        ChaosPlan(seed=5, num_workers=workers, crash_at_round=2)
    )
    stats = chaotic.supervision
    clean_round_seconds = clean.wall_seconds / max(1, clean.rounds)
    chaotic_round_seconds = chaotic.wall_seconds / max(1, chaotic.rounds)
    payload = {
        "workers": workers,
        "peers": peers,
        "segments": segments,
        "cpu_count": cpu_count,
        "failover_gate": failover_gate,
        "byte_exact": bool(clean.byte_exact and chaotic.byte_exact),
        "failures_detected": stats.failures_detected,
        "recoveries": stats.recoveries,
        "degraded_rounds": stats.degraded_rounds,
        "republished_segments": stats.republished_segments,
        "detection_seconds": stats.detection_seconds_avg,
        "recovery_rounds": stats.recovery_rounds_avg,
        "round_seconds_clean": clean_round_seconds,
        "round_seconds_failover": chaotic_round_seconds,
        "degraded_round_slowdown": (
            chaotic_round_seconds / clean_round_seconds
        ),
    }
    record("cluster_failover", payload)
    assert payload["byte_exact"], (
        "self-healing run lost bytes: recovery may cost rounds, never bytes"
    )
    assert stats.failures_detected == 1 and stats.recoveries == 1
    if failover_gate:
        assert stats.detection_seconds_avg <= (
            FAILOVER_DETECTION_SECONDS_CEILING
        ), (
            f"crash took {stats.detection_seconds_avg:.3f}s to detect, "
            f"above the {FAILOVER_DETECTION_SECONDS_CEILING}s ceiling"
        )
        assert stats.recovery_rounds_avg <= (
            FAILOVER_RECOVERY_ROUNDS_CEILING
        ), (
            f"recovery took {stats.recovery_rounds_avg:.1f} rounds, "
            f"above the {FAILOVER_RECOVERY_ROUNDS_CEILING} ceiling"
        )
        slowdown = payload["degraded_round_slowdown"]
        assert slowdown <= FAILOVER_DEGRADED_SLOWDOWN_CEILING, (
            f"failover rounds ran {slowdown:.1f}x slower than clean "
            f"rounds, above the {FAILOVER_DEGRADED_SLOWDOWN_CEILING}x "
            "ceiling"
        )


def test_loadtest_scale():
    """The million-session harness: sustained load through autoscaling.

    Drives :func:`repro.workloads.run_loadtest` at the acceptance shape
    (10^5 modelled sessions full mode, 10^4 in CI smoke): Poisson
    arrivals sized by Little's law, Zipf segment popularity, a 3x flash
    crowd landing mid-run, 1% per-round peer churn, and the
    watermark-driven autoscaler growing the ring from two workers.
    Records what the run sustained — peak modelled sessions, rounds/s,
    the p50/p99 admission delay the shed policy imposed, and how many
    scale events the load forced — plus ``byte_exact`` from the sampled
    real-session cohort that rides the cluster through every rebalance.

    ``byte_exact`` must hold unconditionally; the population floor,
    delay ceiling, and at-least-one-scale-up are full-mode assertions
    (the smoke shape is too small to need the full worker budget).
    """
    from repro.faults import ChurnPlan
    from repro.workloads import AutoscalerConfig, FlashCrowd, run_loadtest

    flash_at = (2 * LOADTEST_ROUNDS) // 3
    report = run_loadtest(
        target_sessions=LOADTEST_SESSIONS,
        rounds=LOADTEST_ROUNDS,
        seed=11,
        num_segments=CLUSTER_SEGMENTS,
        flash_crowds=(
            FlashCrowd(
                start_round=flash_at,
                duration_rounds=LOADTEST_ROUNDS // 10,
                multiplier=3.0,
            ),
        ),
        churn=ChurnPlan(seed=11, departure_rate=0.01, flap_rate=0.01),
        initial_workers=1 if SMOKE else 2,
        autoscaler_config=AutoscalerConfig(
            max_workers=LOADTEST_MAX_WORKERS,
            sustain_rounds=2,
            cooldown_rounds=3 if SMOKE else 4,
        ),
        sample_peers=4 if SMOKE else 8,
    )

    payload = {
        "smoke": SMOKE,
        "target_sessions": LOADTEST_SESSIONS,
        "rounds": report.rounds,
        "wall_seconds": report.wall_seconds,
        "rounds_per_s": report.rounds_per_s,
        "peak_modelled_sessions": report.peak_active_sessions,
        "final_active_sessions": report.final_active_sessions,
        "admission_delay_p50": report.admission_delay_p50,
        "admission_delay_p99": report.admission_delay_p99,
        "shed_responses": report.stats.shed_responses,
        "waiting_at_end": report.waiting_at_end,
        "scale_ups": report.scale_ups,
        "scale_downs": report.scale_downs,
        "peak_workers": report.peak_workers,
        "final_workers": report.final_workers,
        "cohort_peers": report.cohort_peers,
        "verified_segments": report.verified_segments,
        "byte_exact": report.byte_exact,
    }
    record("loadtest_scale", payload)

    assert payload["byte_exact"], (
        "sampled cohort lost bytes under load: shed must pace sessions "
        f"(RetryLater), never drop them — {report.mismatched_segments} "
        f"mismatched, {report.exhausted_peers} exhausted peers"
    )
    if not SMOKE:
        assert report.peak_active_sessions >= LOADTEST_PEAK_SESSIONS_FLOOR, (
            f"peaked at {report.peak_active_sessions} modelled sessions, "
            f"below the {LOADTEST_PEAK_SESSIONS_FLOOR} acceptance floor"
        )
        assert report.admission_delay_p99 <= LOADTEST_DELAY_P99_CEILING, (
            f"p99 admission delay {report.admission_delay_p99:.1f} rounds "
            f"breaches the {LOADTEST_DELAY_P99_CEILING}-round ceiling"
        )
        assert report.scale_ups >= 1, (
            "the flash crowd never forced a scale-up: the autoscaler is "
            "not reacting to load"
        )


def test_multicast_pipeline():
    """What pipelining serve rounds buys over lock-step distribution.

    Drives the identical full-segment demand through the streaming
    server twice via :func:`repro.multicast.compare_modes` — once
    lock-step (encode, transmit, decode, barrier, repeat) and once
    double-buffered (round ``r+1`` encodes while round ``r`` is on the
    wire and decoding) — on the acceptance geometry (n=16, k=1024,
    four peers, quota 2).  Records the :class:`OverlapReport` the
    pipelined run emits: modelled lock-step vs pipelined walls, the
    overlap efficiency between them, and how far the cycle-level
    timeline's per-stage predictions landed from the measured ledger.

    ``byte_exact`` must hold unconditionally — pipelining changes
    *when* work happens, never *what* bytes move.  The efficiency
    floor and stage-error ceiling are modelled-time figures
    (deterministic, machine-independent), so unlike the wall-clock
    floors above they are asserted in smoke mode too.
    """
    from repro.multicast import compare_modes

    params = CodingParams(16, 1024)
    profile = MediaProfile(params=params)
    segment = Segment.random(params, np.random.default_rng(21))
    peers = [0, 1, 2, 3]
    quota = 2

    def make_server():
        server = StreamingServer(
            GTX280,
            profile,
            rng=np.random.default_rng(3),
            per_peer_round_quota=quota,
        )
        server.publish(segment)
        return server

    lockstep, pipelined = compare_modes(
        make_server, peers, segment, quota=quota
    )
    byte_exact = pipelined.byte_exact(lockstep)
    report = pipelined.overlap
    payload = {
        "peers": len(peers),
        "n": params.num_blocks,
        "k": params.block_size,
        "quota": quota,
        "rounds": pipelined.rounds,
        "byte_exact": byte_exact,
        "delivered_bytes": pipelined.delivered_bytes,
        "overlap_efficiency": report.overlap_efficiency,
        "max_stage_error": report.max_stage_error,
        "wall_error": report.wall_error,
        "bottleneck_stage": report.bottleneck_stage,
        "lockstep_wall_s": report.lockstep_wall,
        "pipelined_wall_s": report.pipelined_wall,
    }
    record("multicast_pipeline", payload)

    assert byte_exact, (
        "pipelined run diverged from lock-step: pipelining may change "
        "when work happens, never what bytes move"
    )
    assert report.overlap_efficiency >= MULTICAST_OVERLAP_FLOOR, (
        f"pipelining bought only {report.overlap_efficiency:.2f}x over "
        f"lock-step on the modelled timeline "
        f"(floor {MULTICAST_OVERLAP_FLOOR}x)"
    )
    assert report.max_stage_error <= MULTICAST_STAGE_ERROR_CEILING, (
        f"timeline model missed a stage by "
        f"{report.max_stage_error:.1%}, above the "
        f"{MULTICAST_STAGE_ERROR_CEILING:.0%} ceiling"
    )
