"""Tests for GF(2^8) matrix algebra (RREF, inversion, solve, selection).

Every elimination in :mod:`repro.gf256.matrix` is one ``ENGINE.absorb``
call.  ``TestAgainstPinnedOracles`` holds each function byte-identical to
the two elimination bodies the library ran before that — a per-pivot
Gauss–Jordan loop and a per-row earliest-first selection loop, pinned
below as test-only oracles written straight against the product table —
on the table backend and on the kernel at every dispatch level the host
has.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError, SingularMatrixError
from repro.gf256 import matrix as gfm
from repro.gf256 import regionops, vector
from repro.gf256.engine import ENGINE
from repro.gf256.tables import INV, MUL_TABLE

sizes = st.integers(min_value=1, max_value=12)
seeds = st.integers(min_value=0, max_value=2**31)


# -- pinned oracles ----------------------------------------------------------


def oracle_eliminate(augmented: np.ndarray, pivot_cols: int) -> int:
    """In-place Gauss–Jordan on ``augmented``; returns the rank found.

    Only the first ``pivot_cols`` columns are searched for pivots; rows
    are physically swapped so pivot ``i`` ends up in row ``i``.
    """
    rows = augmented.shape[0]
    pivot_row = 0
    for col in range(pivot_cols):
        if pivot_row == rows:
            break
        support = np.nonzero(augmented[pivot_row:, col])[0]
        if support.size == 0:
            continue
        chosen = pivot_row + int(support[0])
        if chosen != pivot_row:
            augmented[[pivot_row, chosen]] = augmented[[chosen, pivot_row]]
        pivot_value = int(augmented[pivot_row, col])
        if pivot_value != 1:
            augmented[pivot_row] = MUL_TABLE[INV[pivot_value]][augmented[pivot_row]]
        column = augmented[:, col].copy()
        column[pivot_row] = 0
        targets = np.nonzero(column)[0]
        if targets.size:
            augmented[targets] ^= MUL_TABLE[column[targets]][:, augmented[pivot_row]]
        pivot_row += 1
    return pivot_row


def oracle_rref(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    work = np.array(matrix, dtype=np.uint8, copy=True)
    return work, oracle_eliminate(work, work.shape[1])


def oracle_inverse(matrix: np.ndarray) -> np.ndarray:
    n = matrix.shape[0]
    augmented = np.concatenate(
        [np.array(matrix, dtype=np.uint8), gfm.identity(n)], axis=1
    )
    found = oracle_eliminate(augmented, n)
    if found != n:
        raise SingularMatrixError(f"matrix has rank {found} < {n}")
    return augmented[:, n:]


def oracle_solve(coefficients: np.ndarray, coded: np.ndarray) -> np.ndarray:
    n = coefficients.shape[0]
    augmented = np.concatenate([coefficients, coded], axis=1)
    found = oracle_eliminate(augmented, n)
    if found != n:
        raise SingularMatrixError(f"coefficient matrix has rank {found} < {n}")
    return augmented[:, n:]


def oracle_independent_row_indices(matrix: np.ndarray, count=None) -> np.ndarray:
    """Earliest-first selection against a fully reduced basis, row by row."""
    rows, cols = matrix.shape
    target = min(rows, cols) if count is None else min(count, rows, cols)
    basis = np.zeros((target, cols), dtype=np.uint8)
    pivot_cols = np.empty(target, dtype=np.int64)
    chosen: list[int] = []
    for index in range(rows):
        held = len(chosen)
        if held == target:
            break
        reduced = matrix[index].copy()
        for i in range(held):
            reduced ^= MUL_TABLE[reduced[pivot_cols[i]]][basis[i]]
        support = np.nonzero(reduced)[0]
        if support.size == 0:
            continue
        pivot = int(support[0])
        reduced = MUL_TABLE[INV[int(reduced[pivot])]][reduced]
        basis[:held] ^= MUL_TABLE[basis[:held, pivot]][:, reduced]
        basis[held] = reduced
        pivot_cols[held] = pivot
        chosen.append(index)
    return np.array(chosen, dtype=np.int64)


# -- engine configurations and inputs ----------------------------------------

#: The table oracle, then the kernel at each dispatch level, best first.
CONFIGS = pytest.mark.parametrize(
    "config", ("table",) + tuple(reversed(regionops.SIMD_LEVELS))
)


@contextlib.contextmanager
def engine_config(config: str):
    """Run the block on the table backend or the kernel at one level."""
    if config == "table":
        ENGINE.set_backend("table")
        try:
            yield
        finally:
            ENGINE.set_backend("wide")
        return
    level = regionops.SIMD_LEVELS.index(config)
    if not regionops.kernel_available():
        pytest.skip(f"wide kernel unavailable: {regionops.load_error()}")
    if regionops.simd_level() < level:
        pytest.skip(f"host lacks {config}")
    with regionops._cap_simd_level_for_tests(level):
        yield


def shaped(rows: int, cols: int, seed: int, kind: str) -> np.ndarray:
    """A (rows, cols) matrix: dense, sparse, or with dependent rows.

    ``dependent`` rows are, at random, an all-zero row, a duplicate of
    an earlier row, or a combination of two earlier rows.
    """
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
    if kind == "sparse":
        matrix[rng.random((rows, cols)) < 0.75] = 0
    elif kind == "dependent":
        for index in range(rows):
            pick = int(rng.integers(0, 4))
            if pick == 0:
                matrix[index] = 0
            elif pick == 1 and index:
                matrix[index] = matrix[int(rng.integers(0, index))]
            elif pick == 2 and index > 1:
                a, b = rng.choice(index, size=2, replace=False)
                scale_a, scale_b = rng.integers(1, 256, size=2)
                matrix[index] = (
                    MUL_TABLE[scale_a][matrix[a]] ^ MUL_TABLE[scale_b][matrix[b]]
                )
    return matrix


kinds = st.sampled_from(("dense", "sparse", "dependent"))
dims = st.integers(min_value=0, max_value=11)
matrices = st.builds(shaped, dims, dims, seeds, kinds)
squares = dims.flatmap(
    lambda n: st.builds(shaped, st.just(n), st.just(n), seeds, kinds)
)
counts = st.one_of(st.none(), st.integers(min_value=0, max_value=13))


def outcome(function, *args):
    """The function's result, or the type of error it raised."""
    try:
        return function(*args)
    except SingularMatrixError:
        return SingularMatrixError


def assert_same(got, expected):
    if expected is SingularMatrixError:
        assert got is SingularMatrixError
        return
    assert not isinstance(got, type), got
    assert got.dtype == np.uint8
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


class TestAgainstPinnedOracles:
    @CONFIGS
    @settings(max_examples=60, deadline=None)
    @given(matrices)
    def test_rref_and_rank(self, config, matrix):
        expected, expected_rank = oracle_rref(matrix)
        with engine_config(config):
            reduced, found = gfm.rref(matrix)
            assert gfm.rank(matrix) == expected_rank
        assert found == expected_rank
        assert_same(reduced, expected)

    @CONFIGS
    @settings(max_examples=60, deadline=None)
    @given(matrices, counts)
    def test_independent_row_indices(self, config, matrix, count):
        expected = oracle_independent_row_indices(matrix, count)
        with engine_config(config):
            got = gfm.independent_row_indices(matrix, count)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    @CONFIGS
    @settings(max_examples=60, deadline=None)
    @given(squares)
    def test_inverse(self, config, matrix):
        expected = outcome(oracle_inverse, matrix)
        with engine_config(config):
            got = outcome(gfm.inverse, matrix)
        assert_same(got, expected)

    @CONFIGS
    @settings(max_examples=40, deadline=None)
    @given(squares, st.integers(min_value=0, max_value=70), seeds)
    def test_solve(self, config, coefficients, k, seed):
        rng = np.random.default_rng(seed)
        coded = rng.integers(0, 256, size=(coefficients.shape[0], k), dtype=np.uint8)
        expected = outcome(oracle_solve, coefficients, coded)
        with engine_config(config):
            got = outcome(gfm.solve, coefficients, coded)
        assert_same(got, expected)

    @CONFIGS
    @settings(max_examples=60, deadline=None)
    @given(matrices)
    def test_select_and_invert(self, config, candidates):
        n = candidates.shape[1]
        selected = oracle_independent_row_indices(candidates, n)
        with engine_config(config):
            got = outcome(gfm.select_and_invert, candidates)
        if selected.size < n:
            assert got is SingularMatrixError
            return
        indices, inverted = got
        assert indices.dtype == np.int64
        assert np.array_equal(indices, selected)
        assert_same(inverted, oracle_inverse(candidates[selected]))


class TestPublicContract:
    def test_lists_and_wider_integers_are_accepted(self):
        rng = np.random.default_rng(4)
        matrix = gfm.random_invertible(5, rng)
        wide = matrix.astype(np.int64)
        expected_rref = gfm.rref(matrix)
        for candidate in (matrix.tolist(), wide, matrix.astype(np.int32)):
            reduced, found = gfm.rref(candidate)
            assert reduced.dtype == np.uint8
            assert found == expected_rref[1]
            assert np.array_equal(reduced, expected_rref[0])
            assert gfm.rank(candidate) == 5
            selected = gfm.independent_row_indices(candidate, 3)
            assert np.array_equal(selected, np.arange(3))
        assert np.array_equal(gfm.inverse(wide), gfm.inverse(matrix))
        indices, inverted = gfm.select_and_invert(wide)
        assert np.array_equal(indices, np.arange(5))
        assert np.array_equal(inverted, gfm.inverse(matrix))
        coded = rng.integers(0, 256, size=(5, 9))
        assert np.array_equal(
            gfm.solve(wide, coded), gfm.solve(matrix, coded.astype(np.uint8))
        )

    def test_non_2d_and_non_square_raise_field_error(self):
        flat = np.zeros(4, dtype=np.uint8)
        for function in (
            gfm.rref,
            gfm.rank,
            gfm.independent_row_indices,
            gfm.select_and_invert,
            gfm.inverse,
        ):
            with pytest.raises(FieldError):
                function(flat)
        with pytest.raises(FieldError):
            gfm.inverse(np.zeros((3, 4), dtype=np.uint8))
        with pytest.raises(FieldError):
            gfm.independent_row_indices(np.eye(3, dtype=np.uint8), -1)

    def test_rank_deficient_selection_names_the_span(self):
        clones = np.array([[1, 2, 3, 4]] * 3 + [[0, 0, 0, 1]], dtype=np.uint8)
        with pytest.raises(SingularMatrixError, match="rank 2 < 4") as excinfo:
            gfm.select_and_invert(clones)
        assert "independent" in str(excinfo.value)
        with pytest.raises(SingularMatrixError, match="rank 2 < 4"):
            gfm.inverse(clones)


class TestRref:
    def test_rref_of_identity_is_identity(self):
        eye = gfm.identity(4)
        reduced, r = gfm.rref(eye)
        assert r == 4
        assert np.array_equal(reduced, eye)

    def test_rref_of_zero_matrix(self):
        reduced, r = gfm.rref(np.zeros((3, 5), dtype=np.uint8))
        assert r == 0
        assert not reduced.any()

    @settings(max_examples=30, deadline=None)
    @given(sizes, seeds)
    def test_rref_of_invertible_is_identity(self, n, seed):
        rng = np.random.default_rng(seed)
        m = gfm.random_invertible(n, rng)
        reduced, r = gfm.rref(m)
        assert r == n
        assert np.array_equal(reduced, gfm.identity(n))

    def test_dependent_rows_produce_zero_row(self):
        rng = np.random.default_rng(3)
        base = gfm.random_matrix(2, 4, rng)
        # Third row = combination of the first two.
        third = vector.mul_scalar_table(base[0], 7) ^ vector.mul_scalar_table(
            base[1], 9
        )
        stacked = np.vstack([base, third[None, :]])
        reduced, r = gfm.rref(stacked)
        assert r == 2
        assert not reduced[2].any()

    def test_rref_requires_2d(self):
        with pytest.raises(FieldError):
            gfm.rref(np.zeros(4, dtype=np.uint8))

    def test_input_not_modified(self):
        rng = np.random.default_rng(0)
        m = gfm.random_matrix(4, 4, rng)
        copy = m.copy()
        gfm.rref(m)
        assert np.array_equal(m, copy)


class TestInverse:
    @settings(max_examples=30, deadline=None)
    @given(sizes, seeds)
    def test_inverse_round_trip(self, n, seed):
        rng = np.random.default_rng(seed)
        m = gfm.random_invertible(n, rng)
        assert gfm.check_inverse(m, gfm.inverse(m))

    def test_singular_raises(self):
        singular = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(SingularMatrixError):
            gfm.inverse(singular)

    def test_non_square_raises(self):
        with pytest.raises(FieldError):
            gfm.inverse(np.zeros((2, 3), dtype=np.uint8))

    def test_inverse_of_identity(self):
        assert np.array_equal(gfm.inverse(gfm.identity(6)), gfm.identity(6))


class TestSolve:
    @settings(max_examples=30, deadline=None)
    @given(sizes, st.integers(min_value=1, max_value=16), seeds)
    def test_solve_recovers_source_blocks(self, n, k, seed):
        rng = np.random.default_rng(seed)
        source = rng.integers(0, 256, size=(n, k), dtype=np.uint8)
        coeffs = gfm.random_invertible(n, rng)
        coded = vector.matmul(coeffs, source)
        assert np.array_equal(gfm.solve(coeffs, coded), source)

    def test_solve_matches_inverse_path(self):
        rng = np.random.default_rng(11)
        n, k = 8, 32
        source = rng.integers(0, 256, size=(n, k), dtype=np.uint8)
        coeffs = gfm.random_invertible(n, rng)
        coded = vector.matmul(coeffs, source)
        via_inverse = vector.matmul(gfm.inverse(coeffs), coded)
        assert np.array_equal(gfm.solve(coeffs, coded), via_inverse)

    def test_singular_system_raises(self):
        singular = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        with pytest.raises(SingularMatrixError):
            gfm.solve(singular, np.zeros((2, 4), dtype=np.uint8))

    def test_shape_checks(self):
        with pytest.raises(FieldError):
            gfm.solve(
                np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8)
            )
        with pytest.raises(FieldError):
            gfm.solve(
                np.zeros((2, 2), dtype=np.uint8), np.zeros((3, 4), dtype=np.uint8)
            )


class TestRandomMatrices:
    def test_dense_matrix_has_no_zeros(self):
        rng = np.random.default_rng(1)
        m = gfm.random_matrix(16, 16, rng)
        assert (m != 0).all()

    def test_sparse_density_roughly_respected(self):
        rng = np.random.default_rng(1)
        m = gfm.random_matrix(64, 64, rng, density=0.25)
        fraction = (m != 0).mean()
        assert 0.15 < fraction < 0.35

    def test_invalid_density_raises(self):
        rng = np.random.default_rng(1)
        with pytest.raises(FieldError):
            gfm.random_matrix(4, 4, rng, density=0.0)

    def test_random_invertible_is_invertible(self):
        rng = np.random.default_rng(5)
        m = gfm.random_invertible(10, rng)
        assert gfm.rank(m) == 10
