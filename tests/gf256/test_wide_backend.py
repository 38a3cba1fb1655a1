"""Property suite for the wide region-op backend and its fallback.

Cross-validates the compiled SIMD kernel (when it loaded), the table
fallback the wide backend runs without it (forced via
``REPRO_WIDE_KERNEL=0``), the table oracle, and the pinned seed-era
reference decoder against each other.  Degenerate shapes — zero output
rows, k=1, single-block generations, all-zero coefficient rows — and
misaligned or strided destination views are pinned explicitly alongside
the randomized sweep.  ``TestEverySimdLevel`` repeats the kernel checks
at every dispatch level the host supports (GFNI, AVX-512BW, AVX2,
scalar), lowered through the kernel's private cap hook.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gf256 import regionops
from repro.gf256.engine import ENGINE, Gf256Engine
from repro.gf256.tables import MUL_TABLE
from tests.rlnc._reference import ReferenceProgressiveDecoder
from repro.rlnc.block import CodedBlock, CodingParams, Segment
from repro.rlnc.decoder import ProgressiveDecoder
from repro.rlnc.encoder import Encoder

shapes = st.tuples(
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=80),
)
seeds = st.integers(min_value=0, max_value=2**31)


@pytest.fixture
def kernel_and_fallback(monkeypatch):
    """Run a computation on the compiled kernel, then without it.

    Yields ``both(compute)``: ``compute()`` must build and return fresh
    arrays.  It runs once on the kernel (when it loads on this host) and
    once with ``REPRO_WIDE_KERNEL=0``; the two results must be
    byte-identical, and the fallback's is returned.
    """

    def both(compute):
        with_kernel = compute() if regionops.kernel_available() else None
        with monkeypatch.context() as patch:
            patch.setenv(regionops.KERNEL_ENV_VAR, "0")
            regionops._reset_for_tests()
            try:
                assert not regionops.kernel_available()
                fallback = compute()
            finally:
                regionops._reset_for_tests()
        if with_kernel is not None:
            for got, expected in zip(fallback, with_kernel):
                assert np.array_equal(got, expected)
        return fallback

    yield both
    regionops._reset_for_tests()


def random_operands(m, n, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
    b = rng.integers(0, 256, size=(n, k), dtype=np.uint8)
    return a, b


#: absorb orders whose 2n-byte work rows end in a partial 64-byte vector.
TAIL_ORDERS = (1, 5, 31, 33, 40)

#: Guard bytes fenced around a work matrix: odd, so the matrix starts off
#: every word boundary, and more than a vector, so an unmasked tail store
#: lands inside them.
GUARD = 67


def absorb_batch(n, seed):
    """n + 3 coefficient rows, sparse, with an all-zero and a duplicate row."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 256, size=(n + 3, n), dtype=np.uint8)
    rows[rng.random(rows.shape) < 0.2] = 0
    rows[1] = 0
    rows[2] = rows[0]
    return rows


def plain_work(n):
    return np.zeros((n, 2 * n), dtype=np.uint8)


def guarded_work(n, seed):
    """A zeroed C-contiguous (n, 2n) view with random guard bytes around it."""
    rng = np.random.default_rng(seed + 1)
    host = rng.integers(0, 256, size=2 * n * n + 2 * GUARD, dtype=np.uint8)
    work = host[GUARD : GUARD + 2 * n * n].reshape(n, 2 * n)
    work[:] = 0
    return host, work


def assert_guards_intact(host, fence, work):
    end = GUARD + work.size
    assert np.array_equal(host[:GUARD], fence[:GUARD])
    assert np.array_equal(host[end:], fence[end:])


def absorb_in_two(engine, work, incoming, split):
    """Absorb ``incoming`` as two batches, the second onto held rows.

    Returns ``(work, pivot_cols, accepted)``.
    """
    pivot_cols = np.zeros(work.shape[0], dtype=np.int64)
    first = engine.absorb(work, 0, incoming[:split], pivot_cols)
    second = engine.absorb(work, first.size, incoming[split:], pivot_cols)
    return work, pivot_cols, np.concatenate([first, second + split])


class TestWideMatmul:
    @settings(max_examples=60, deadline=None)
    @given(shapes, seeds)
    def test_wide_matches_table(self, shape, seed):
        m, n, k = shape
        a, b = random_operands(m, n, k, seed)
        expected = Gf256Engine("table").matmul(a, b)
        got = Gf256Engine("wide").matmul(a, b)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)

    @settings(
        max_examples=25,
        deadline=None,
        # The kernel/fallback fixture spans all examples on purpose:
        # each example toggles the kernel off and back on itself.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(shapes, seeds)
    def test_numpy_fallback_matches_table(
        self, kernel_and_fallback, shape, seed
    ):
        m, n, k = shape
        a, b = random_operands(m, n, k, seed)
        expected = Gf256Engine("table").matmul(a, b)

        def compute():
            engine = Gf256Engine("wide")
            # A strided destination whose rows start off the word
            # boundary; the border bytes must survive untouched.
            host = np.full((m + 1, k + 9), 0xEE, dtype=np.uint8)
            engine.matmul(a, b, out=host[1:, 3 : 3 + k])
            return engine.matmul(a, b), host

        product, host = kernel_and_fallback(compute)
        assert np.array_equal(product, expected)
        assert np.array_equal(host[1:, 3 : 3 + k], expected)
        host[1:, 3 : 3 + k] = 0xEE
        assert (host == 0xEE).all()

    def test_zero_output_rows(self):
        a = np.zeros((0, 5), dtype=np.uint8)
        b = np.arange(5 * 7, dtype=np.uint8).reshape(5, 7)
        got = Gf256Engine("wide").matmul(a, b)
        assert got.shape == (0, 7)

    def test_single_byte_blocks(self):
        # k=1: one-byte payloads run entirely in a partial vector.
        a, b = random_operands(9, 6, 1, 101)
        expected = Gf256Engine("table").matmul(a, b)
        assert np.array_equal(Gf256Engine("wide").matmul(a, b), expected)

    def test_all_zero_coefficient_rows(self):
        a = np.zeros((4, 8), dtype=np.uint8)
        a[1] = np.arange(8)
        b = np.full((8, 33), 0xAB, dtype=np.uint8)
        got = Gf256Engine("wide").matmul(a, b)
        assert not got[0].any() and not got[2].any() and not got[3].any()
        assert np.array_equal(got[1], Gf256Engine("table").matmul(a, b)[1])

    def test_strided_out_rows(self):
        # The decoder writes payload columns of a wider aggregate matrix:
        # out rows are strided views.  Must land byte-exact in place.
        a, b = random_operands(6, 6, 40, 77)
        aggregate = np.zeros((6, 50), dtype=np.uint8)
        Gf256Engine("wide").matmul(a, b, out=aggregate[:, 10:])
        assert np.array_equal(
            aggregate[:, 10:], Gf256Engine("table").matmul(a, b)
        )
        assert not aggregate[:, :10].any()


def capped_level(level):
    """Cap the kernel at ``level``, skipping levels this host lacks."""
    if not regionops.kernel_available():
        pytest.skip(f"wide kernel unavailable: {regionops.load_error()}")
    if regionops.simd_level() < level:
        pytest.skip(f"host lacks {regionops.SIMD_LEVELS[level]}")
    return regionops._cap_simd_level_for_tests(level)


#: Every dispatch level, best first, with the level's name as test id.
LEVELS = pytest.mark.parametrize(
    "level",
    range(len(regionops.SIMD_LEVELS) - 1, -1, -1),
    ids=lambda level: regionops.SIMD_LEVELS[level],
)

#: Shapes around the register block (4 and 8 rows, 64-byte lanes,
#: 4-lane column blocks): ragged m, and k below, at and past every
#: vector boundary.
level_shapes = st.tuples(
    st.integers(min_value=0, max_value=21),
    st.integers(min_value=1, max_value=20),
    st.sampled_from((1, 5, 31, 63, 64, 65, 127, 128, 200, 255, 256, 257, 300)),
)


class TestEverySimdLevel:
    """Each dispatch level the host has, byte-identical to the oracle."""

    @LEVELS
    @settings(max_examples=40, deadline=None)
    @given(level_shapes, seeds, st.sampled_from(("dense", "sparse", "identity")))
    def test_matmul_matches_table(self, level, shape, seed, rows):
        m, n, k = shape
        a, b = random_operands(m, n, k, seed)
        if rows == "sparse":
            # All-zero rows and mostly-zero columns: whole blocks skip.
            rng = np.random.default_rng(seed)
            a[rng.random((m, n)) < 0.8] = 0
            a[::3] = 0
        elif rows == "identity":
            # A systematic prefix: identity rows, then dense ones.
            a[: min(m, n)] = np.eye(n, dtype=np.uint8)[: min(m, n)]
        expected = Gf256Engine("table").matmul(a, b)
        # A strided destination at an odd column offset, fenced by
        # guard bytes that must survive untouched.
        host = np.full((m + 2, k + 71), 0xEE, dtype=np.uint8)
        out = host[1 : m + 1, 3 : 3 + k]
        with capped_level(level) as running:
            assert running == level
            Gf256Engine("wide").matmul(a, b, out=out)
        assert np.array_equal(out, expected)
        host[1 : m + 1, 3 : 3 + k] = 0xEE
        assert (host == 0xEE).all()

    @LEVELS
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(TAIL_ORDERS),
        st.integers(min_value=0, max_value=3),
        seeds,
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=6),
    )
    def test_region_ops_match_tables(self, level, n, split, seed, width, rows):
        # absorb's region passes at orders whose 2n-byte rows end in a
        # partial vector, on a work matrix fenced by guard bytes.
        incoming = absorb_batch(n, seed)
        expected = absorb_in_two(Gf256Engine("table"), plain_work(n), incoming, split)
        host, work = guarded_work(n, seed)
        fence = host.copy()
        with capped_level(level):
            got = absorb_in_two(Gf256Engine("wide"), work, incoming, split)
        for got_part, expected_part in zip(got, expected):
            assert np.array_equal(got_part, expected_part)
        assert_guards_intact(host, fence, work)
        # fold_rows, the matmul kernel's one-row band accumulating into
        # dst, over strided rows and a dst fenced by guard bytes.
        rng = np.random.default_rng(seed)
        stack = rng.integers(0, 256, size=(rows, width + 66), dtype=np.uint8)
        factors = rng.integers(0, 256, size=rows, dtype=np.uint8)
        dst_host = rng.integers(0, 256, size=width + 66, dtype=np.uint8)
        fold = dst_host.copy()
        for i in range(rows):
            fold[1 : 1 + width] ^= MUL_TABLE[factors[i]][stack[i, 1 : 1 + width]]
        with capped_level(level):
            regionops.fold_rows(
                dst_host[1 : 1 + width], stack[:, 1 : 1 + width], factors
            )
        assert np.array_equal(dst_host, fold)

    @LEVELS
    def test_decoder_matches_reference(self, level):
        rng = np.random.default_rng(23)
        segment = Segment.random(CodingParams(40, 100), rng)
        blocks = Encoder(segment, rng).encode_blocks(44)
        reference = ReferenceProgressiveDecoder(segment.params)
        decoder = ProgressiveDecoder(segment.params)
        with capped_level(level):
            for block in blocks:
                if decoder.is_complete:
                    break
                assert decoder.consume(block) == reference.consume(block)
            recovered = decoder.recover_segment().blocks
        assert np.array_equal(recovered, reference.recover_segment().blocks)
        assert np.array_equal(recovered, segment.blocks)

    def test_cap_only_lowers_and_restores(self):
        with capped_level(0) as running:
            assert running == regionops.simd_level() == 0
        detected = regionops.simd_level()
        above = len(regionops.SIMD_LEVELS) + 4
        with regionops._cap_simd_level_for_tests(above) as running:
            assert running == detected
        assert regionops.simd_level() == detected


class TestRegionOps:
    @pytest.mark.parametrize("backend", ("table", "wide"))
    def test_all_backends_agree_on_region_op(self, backend):
        # absorb against the pinned seed decoder's row-by-row
        # Gauss–Jordan: the same rows accepted, and the transform half
        # inverts the accepted coefficients (P^T M = C^-1).
        n = 23
        incoming = absorb_batch(n, 6)
        rng = np.random.default_rng(6)
        payloads = rng.integers(0, 256, size=(n + 3, 9), dtype=np.uint8)
        reference = ReferenceProgressiveDecoder(CodingParams(n, 9))
        innovative = []
        for index, row in enumerate(incoming):
            block = CodedBlock(coefficients=row, payload=payloads[index])
            if not reference.is_complete and reference.consume(block):
                innovative.append(index)
        assert reference.is_complete
        work, pivot_cols, accepted = absorb_in_two(
            Gf256Engine(backend), plain_work(n), incoming, 2
        )
        assert accepted.tolist() == innovative
        inverted = np.empty((n, n), dtype=np.uint8)
        inverted[pivot_cols] = work[:, n:]
        assert np.array_equal(
            Gf256Engine("table").matmul(inverted, payloads[accepted]),
            reference.recover_segment().blocks,
        )

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=96),
        seeds,
    )
    def test_fold_rows_matches_naive(self, rows, width, seed):
        if not regionops.kernel_available():
            pytest.skip(f"wide kernel unavailable: {regionops.load_error()}")
        rng = np.random.default_rng(seed)
        dst = rng.integers(0, 256, size=width, dtype=np.uint8)
        stack = rng.integers(0, 256, size=(rows, width), dtype=np.uint8)
        factors = rng.integers(0, 256, size=rows, dtype=np.uint8)
        expected = dst.copy()
        for i in range(rows):
            expected ^= MUL_TABLE[factors[i]][stack[i]]
        regionops.fold_rows(dst, stack, factors)
        assert np.array_equal(dst, expected)

    def test_zero_factors_are_noops(self):
        rng = np.random.default_rng(8)
        dst = rng.integers(0, 256, size=(5, 64), dtype=np.uint8)
        before = dst.copy()
        if regionops.kernel_available():
            regionops.fold_rows(dst[0], dst[1:], np.zeros(4, dtype=np.uint8))
            assert np.array_equal(dst, before)
        # All-zero incoming rows are dependent: nothing is accepted and
        # neither the held rows nor their pivots change.
        n = 7
        dense = rng.integers(0, 256, size=(3, n), dtype=np.uint8)
        for backend in ("table", "wide"):
            work = plain_work(n)
            pivot_cols = np.zeros(n, dtype=np.int64)
            engine = Gf256Engine(backend)
            engine.absorb(work, 0, dense, pivot_cols)
            held, pivots = work.copy(), pivot_cols.copy()
            zeros = np.zeros((4, n), dtype=np.uint8)
            accepted = engine.absorb(work, 3, zeros, pivot_cols)
            assert accepted.size == 0, backend
            assert np.array_equal(work, held), backend
            assert np.array_equal(pivot_cols, pivots), backend

    def test_fold_over_no_rows_is_a_noop(self):
        # numpy gives an empty (0, k) matrix strides (0, 0); with no
        # rows there is no row layout to reject.
        if not regionops.kernel_available():
            pytest.skip(f"wide kernel unavailable: {regionops.load_error()}")
        dst = np.arange(16, dtype=np.uint8)
        rows = np.zeros((0, 16), dtype=np.uint8)
        regionops.fold_rows(dst, rows, np.zeros(0, dtype=np.uint8))
        assert np.array_equal(dst, np.arange(16, dtype=np.uint8))

    def test_noncontiguous_rows_are_named_once(self):
        rows = np.zeros((3, 8), dtype=np.uint8)[:, ::2]
        with pytest.raises(ValueError, match="^rows must have contiguous rows$"):
            regionops._check_row_view(rows, "rows")

    def test_region_ops_without_kernel(self, kernel_and_fallback):
        # absorb on the kernel and on the wide backend's table fallback,
        # into a work view fenced by guard bytes, at every tail order.
        def compute():
            results = []
            for n in TAIL_ORDERS:
                host, work = guarded_work(n, n)
                fence = host.copy()
                absorb_in_two(Gf256Engine("wide"), work, absorb_batch(n, n), 1)
                assert_guards_intact(host, fence, work)
                results.append(host)
            return results

        hosts = kernel_and_fallback(compute)
        for n, host in zip(TAIL_ORDERS, hosts):
            expected = absorb_in_two(
                Gf256Engine("table"), plain_work(n), absorb_batch(n, n), 1
            )[0]
            assert np.array_equal(
                host[GUARD : GUARD + 2 * n * n].reshape(n, 2 * n), expected
            )


class TestDecoderCrossValidation:
    @pytest.fixture(params=["wide", "table"])
    def global_backend(self, request):
        ENGINE.set_backend(request.param)
        yield request.param
        ENGINE.set_backend("wide")

    @settings(max_examples=12, deadline=None)
    @given(
        st.tuples(
            st.integers(min_value=1, max_value=9),
            st.integers(min_value=1, max_value=24),
        ),
        seeds,
    )
    def test_progressive_decoder_matches_reference(self, geometry, seed):
        n, k = geometry
        rng = np.random.default_rng(seed)
        segment = Segment.random(CodingParams(n, k), rng)
        blocks = Encoder(segment, rng).encode_blocks(n + 3)
        decoder = ProgressiveDecoder(segment.params)
        reference = ReferenceProgressiveDecoder(segment.params)
        for block in blocks:
            if decoder.is_complete:
                break
            assert decoder.consume(block) == reference.consume(block)
            assert decoder.rank == reference.rank
        assert decoder.is_complete and reference.is_complete
        assert np.array_equal(
            decoder.recover_segment().blocks,
            reference.recover_segment().blocks,
        )

    def test_decoder_byte_exact_under_forced_backends(self, global_backend):
        rng = np.random.default_rng(21)
        segment = Segment.random(CodingParams(6, 40), rng)
        blocks = Encoder(segment, rng).encode_blocks(8)
        decoder = ProgressiveDecoder(segment.params)
        reference = ReferenceProgressiveDecoder(segment.params)
        for block in blocks:
            if decoder.is_complete:
                break
            decoder.consume(block)
            reference.consume(block)
        assert np.array_equal(
            decoder.recover_segment().blocks,
            reference.recover_segment().blocks,
        )

    def test_single_block_generation(self):
        # n=1: every coded block is a scalar multiple of the one source
        # block; the decoder must finish after a single innovative row.
        rng = np.random.default_rng(22)
        segment = Segment.random(CodingParams(1, 16), rng)
        decoder = ProgressiveDecoder(segment.params)
        decoder.consume(Encoder(segment, rng).encode_block())
        assert decoder.is_complete
        assert np.array_equal(
            decoder.recover_segment().blocks, segment.blocks
        )
