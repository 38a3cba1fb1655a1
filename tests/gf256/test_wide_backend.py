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
from repro.rlnc._reference import ReferenceProgressiveDecoder
from repro.rlnc.block import CodingParams, Segment
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
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=6),
        seeds,
    )
    def test_region_ops_match_tables(self, level, width, rows, seed):
        rng = np.random.default_rng(seed)
        host = rng.integers(0, 256, size=(rows, width + 66), dtype=np.uint8)
        dst = host[:, 1 : 1 + width]
        src = rng.integers(0, 256, size=width, dtype=np.uint8)
        factors = rng.integers(0, 256, size=rows, dtype=np.uint8)
        axpy = host.copy()
        for i in range(rows):
            axpy[i, 1 : 1 + width] ^= MUL_TABLE[factors[i]][src]
        fold = src.copy()
        for i in range(rows):
            fold ^= MUL_TABLE[factors[i]][axpy[i, 1 : 1 + width]]
        region = fold ^ MUL_TABLE[0x47][src]
        engine = Gf256Engine("wide")
        with capped_level(level):
            engine.axpy_rows(dst, factors, src)
            got_fold = src.copy()
            engine.fold_rows(got_fold, dst, factors)
            got_region = got_fold.copy()
            engine.mul_add_region(got_region, src, 0x47)
        assert np.array_equal(host, axpy)
        assert np.array_equal(got_fold, fold)
        assert np.array_equal(got_region, region)

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
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=255),
        seeds,
    )
    def test_mul_add_region_matches_tables(self, width, coefficient, seed):
        rng = np.random.default_rng(seed)
        dst = rng.integers(0, 256, size=width, dtype=np.uint8)
        src = rng.integers(0, 256, size=width, dtype=np.uint8)
        expected = dst ^ MUL_TABLE[coefficient][src]
        got = dst.copy()
        Gf256Engine("wide").mul_add_region(got, src, coefficient)
        assert np.array_equal(got, expected)

    def test_mul_add_region_misaligned_view(self):
        rng = np.random.default_rng(5)
        host = rng.integers(0, 256, size=130, dtype=np.uint8)
        src = rng.integers(0, 256, size=129, dtype=np.uint8)
        dst = host[1:]  # deliberately 8-byte misaligned
        expected = dst ^ MUL_TABLE[0x47][src]
        Gf256Engine("wide").mul_add_region(dst, src, 0x47)
        assert np.array_equal(host[1:], expected)

    @pytest.mark.parametrize("backend", ("table", "wide"))
    def test_all_backends_agree_on_region_op(self, backend):
        rng = np.random.default_rng(6)
        dst = rng.integers(0, 256, size=95, dtype=np.uint8)
        src = rng.integers(0, 256, size=95, dtype=np.uint8)
        expected = dst ^ MUL_TABLE[0x9D][src]
        got = dst.copy()
        Gf256Engine(backend).mul_add_region(got, src, 0x9D)
        assert np.array_equal(got, expected), backend

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=96),
        seeds,
    )
    def test_axpy_rows_matches_naive(self, rows, width, seed):
        rng = np.random.default_rng(seed)
        dst = rng.integers(0, 256, size=(rows, width), dtype=np.uint8)
        src = rng.integers(0, 256, size=width, dtype=np.uint8)
        factors = rng.integers(0, 256, size=rows, dtype=np.uint8)
        expected = dst.copy()
        for i in range(rows):
            expected[i] ^= MUL_TABLE[factors[i]][src]
        got = dst.copy()
        Gf256Engine("wide").axpy_rows(got, factors, src)
        assert np.array_equal(got, expected)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=96),
        seeds,
    )
    def test_fold_rows_matches_naive(self, rows, width, seed):
        rng = np.random.default_rng(seed)
        dst = rng.integers(0, 256, size=width, dtype=np.uint8)
        stack = rng.integers(0, 256, size=(rows, width), dtype=np.uint8)
        factors = rng.integers(0, 256, size=rows, dtype=np.uint8)
        expected = dst.copy()
        for i in range(rows):
            expected ^= MUL_TABLE[factors[i]][stack[i]]
        got = dst.copy()
        Gf256Engine("wide").fold_rows(got, stack, factors)
        assert np.array_equal(got, expected)

    def test_zero_factors_are_noops(self):
        rng = np.random.default_rng(8)
        dst = rng.integers(0, 256, size=(5, 64), dtype=np.uint8)
        src = rng.integers(0, 256, size=64, dtype=np.uint8)
        before = dst.copy()
        engine = Gf256Engine("wide")
        engine.axpy_rows(dst, np.zeros(5, dtype=np.uint8), src)
        assert np.array_equal(dst, before)
        engine.fold_rows(dst[0], dst[1:], np.zeros(4, dtype=np.uint8))
        assert np.array_equal(dst, before)

    def test_region_ops_without_kernel(self, kernel_and_fallback):
        rng = np.random.default_rng(9)
        dst = rng.integers(0, 256, size=(7, 70), dtype=np.uint8)
        src = rng.integers(0, 256, size=70, dtype=np.uint8)
        factors = rng.integers(0, 256, size=7, dtype=np.uint8)
        factors[2] = 0
        axpy_expected = dst.copy()
        for i in range(7):
            axpy_expected[i] ^= MUL_TABLE[factors[i]][src]
        fold_expected = src.copy()
        for i in range(7):
            fold_expected ^= MUL_TABLE[factors[i]][axpy_expected[i]]
        region_expected = src ^ MUL_TABLE[0x47][dst[0]]

        def compute():
            engine = Gf256Engine("wide")
            # Every destination is a view at an odd offset into a larger
            # buffer, with strided rows for the 2-D one.
            axpy_host = np.zeros((7, 75), dtype=np.uint8)
            axpy_host[:, 3:73] = dst
            engine.axpy_rows(axpy_host[:, 3:73], factors, src)
            fold_host = np.zeros(72, dtype=np.uint8)
            fold_host[1:71] = src
            engine.fold_rows(fold_host[1:71], axpy_host[:, 3:73], factors)
            region_host = np.zeros(72, dtype=np.uint8)
            region_host[1:71] = src
            engine.mul_add_region(region_host[1:71], dst[0], 0x47)
            return axpy_host, fold_host, region_host

        axpy_host, fold_host, region_host = kernel_and_fallback(compute)
        assert np.array_equal(axpy_host[:, 3:73], axpy_expected)
        assert not axpy_host[:, :3].any() and not axpy_host[:, 73:].any()
        assert np.array_equal(fold_host[1:71], fold_expected)
        assert np.array_equal(region_host[1:71], region_expected)
        assert fold_host[0] == fold_host[71] == region_host[0] == 0


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
