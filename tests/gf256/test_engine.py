"""Equivalence and selection tests for the GF(2^8) engine.

The two implementations — the compiled ``wide`` kernel and the
``table`` oracle — must be byte-exact against each other and against
the seed-era scalar reference (``gf_mul_loop``) on randomized shapes.
"""

import numpy as np
import pytest

from repro.errors import FieldError
from repro.gf256 import gf_mul_loop
from repro.gf256.engine import BACKENDS, ENGINE, Gf256Engine


def scalar_reference_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Seed-era scalar reference: every product via the shift-and-add loop."""
    m, n = a.shape
    k = b.shape[1]
    out = np.zeros((m, k), dtype=np.uint8)
    for row in range(m):
        for col in range(k):
            acc = 0
            for i in range(n):
                acc ^= gf_mul_loop(int(a[row, i]), int(b[i, col]))
            out[row, col] = acc
    return out


class TestBackendEquivalence:
    SHAPES = [
        (1, 1, 1),
        (1, 7, 13),
        (3, 4, 2),
        (5, 16, 33),
        (17, 8, 64),
        (40, 6, 40),
        (64, 12, 5),
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_backends_agree_with_scalar_reference(self, shape):
        m, n, k = shape
        rng = np.random.default_rng(hash(shape) % (2**32))
        a = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
        b = rng.integers(0, 256, size=(n, k), dtype=np.uint8)
        expected = scalar_reference_matmul(a, b)
        for backend in BACKENDS:
            engine = Gf256Engine(backend)
            assert np.array_equal(engine.matmul(a, b), expected), backend

    def test_backends_agree_on_large_random_shapes(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            m = int(rng.integers(1, 90))
            n = int(rng.integers(1, 70))
            k = int(rng.integers(1, 300))
            a = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
            b = rng.integers(0, 256, size=(n, k), dtype=np.uint8)
            assert np.array_equal(
                Gf256Engine("table").matmul(a, b),
                Gf256Engine("wide").matmul(a, b),
            )

    def test_zero_heavy_operands(self):
        rng = np.random.default_rng(14)
        a = rng.integers(0, 256, size=(40, 20), dtype=np.uint8)
        a[a < 128] = 0
        b = rng.integers(0, 256, size=(20, 50), dtype=np.uint8)
        b[:, ::2] = 0
        assert np.array_equal(
            Gf256Engine("table").matmul(a, b),
            Gf256Engine("wide").matmul(a, b),
        )


class TestBackendSelection:
    def test_catalog_is_wide_then_table(self):
        assert BACKENDS == ("wide", "table")
        assert Gf256Engine().backend == "wide"
        assert ENGINE.backend == "wide"

    def test_set_backend_overrides_and_resets(self):
        engine = Gf256Engine("table")
        assert engine.backend == "table"
        engine.set_backend("wide")
        assert engine.backend == "wide"

    def test_unknown_backend_rejected(self):
        # The retired backend names fail like any other unknown name.
        for name in ("simd9000", "auto", "log", "bitslice", None):
            with pytest.raises(FieldError) as excinfo:
                Gf256Engine(name)
            for backend in BACKENDS:
                assert backend in str(excinfo.value)
            engine = Gf256Engine()
            with pytest.raises(FieldError):
                engine.set_backend(name)
            assert engine.backend == "wide"

    def test_all_backend_names_construct(self):
        for name in BACKENDS:
            assert Gf256Engine(name).backend == name


class TestInputValidation:
    def test_rejects_non_u8(self):
        with pytest.raises(FieldError):
            ENGINE.matmul(
                np.zeros((2, 2), dtype=np.uint16),
                np.zeros((2, 2), dtype=np.uint8),
            )
        with pytest.raises(FieldError):
            ENGINE.absorb(
                np.zeros((4, 8), dtype=np.uint8),
                0,
                np.zeros((2, 4), dtype=np.uint16),
                np.zeros(4, dtype=np.int64),
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rejects_strided_region_rows(self, backend):
        # The kernel walks a matmul output row as k consecutive bytes and
        # absorb's work matrix as n rows of 2n, so a strided view would
        # have it write outside the view; both backends refuse the same
        # inputs.
        engine = Gf256Engine(backend)
        matrix = np.zeros((2, 16), dtype=np.uint8)
        with pytest.raises(FieldError):
            engine.matmul(
                np.ones((2, 2), np.uint8),
                np.ones((2, 8), np.uint8),
                out=matrix[:, ::2],
            )
        host = np.zeros((4, 16), dtype=np.uint8)
        with pytest.raises(FieldError):
            engine.absorb(
                host[:, :8],
                0,
                np.ones((2, 4), dtype=np.uint8),
                np.zeros(4, dtype=np.int64),
            )
        with pytest.raises(FieldError):
            engine.absorb(
                host[:, ::2],
                0,
                np.ones((2, 4), dtype=np.uint8),
                np.zeros(4, dtype=np.int64),
            )
        assert not matrix.any()
        assert not host.any()
