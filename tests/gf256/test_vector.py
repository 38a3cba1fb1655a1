"""Tests for vectorized GF(2^8) row/matrix operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import FieldError
from repro.gf256 import arithmetic as gf
from repro.gf256 import vector

u8_rows = hnp.arrays(np.uint8, st.integers(min_value=1, max_value=64))
coefficients = st.integers(min_value=0, max_value=255)


def naive_matmul(a, b):
    m, n = a.shape
    k = b.shape[1]
    out = np.zeros((m, k), dtype=np.uint8)
    for i in range(m):
        for j in range(k):
            acc = 0
            for t in range(n):
                acc ^= gf.gf_mul(int(a[i, t]), int(b[t, j]))
            out[i, j] = acc
    return out


class TestScalarRowOps:
    @given(u8_rows, coefficients)
    def test_loop_and_table_backends_agree(self, row, c):
        assert np.array_equal(
            vector.mul_scalar_loop(row, c), vector.mul_scalar_table(row, c)
        )

    @given(u8_rows, coefficients)
    def test_matches_scalar_multiply(self, row, c):
        out = vector.mul_scalar_table(row, c)
        for x, y in zip(row.tolist(), out.tolist()):
            assert y == gf.gf_mul(x, c)

    def test_rejects_non_uint8(self):
        with pytest.raises(FieldError):
            vector.mul_scalar_table(np.zeros(4, dtype=np.int32), 3)


class TestElementwise:
    def test_shape_mismatch_raises(self):
        with pytest.raises(FieldError):
            vector.mul_elementwise(
                np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8)
            )

    @given(u8_rows)
    def test_elementwise_with_ones(self, row):
        ones = np.ones_like(row)
        assert np.array_equal(vector.mul_elementwise(row, ones), row)


class TestMatmul:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_naive(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
        b = rng.integers(0, 256, size=(n, k), dtype=np.uint8)
        assert np.array_equal(vector.matmul(a, b), naive_matmul(a, b))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(FieldError):
            vector.matmul(
                np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 2), dtype=np.uint8)
            )

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, size=(5, 5), dtype=np.uint8)
        eye = np.eye(5, dtype=np.uint8)
        assert np.array_equal(vector.matmul(eye, a), a)
        assert np.array_equal(vector.matmul(a, eye), a)


class TestLogDomain:
    @given(u8_rows)
    def test_round_trip(self, row):
        assert np.array_equal(
            vector.from_log_domain(vector.to_log_domain(row)), row
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_log_domain_matmul_matches_plain(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=(m, n), dtype=np.uint8)
        b = rng.integers(0, 256, size=(n, k), dtype=np.uint8)
        out = vector.matmul_log_domain(
            vector.to_log_domain(a), vector.to_log_domain(b)
        )
        assert np.array_equal(out, vector.matmul(a, b))

    def test_log_domain_matmul_rejects_bad_shapes(self):
        with pytest.raises(FieldError):
            vector.matmul_log_domain(
                np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 2), dtype=np.uint8)
            )
