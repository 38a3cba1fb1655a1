"""Dense matrix algebra over GF(2^8).

Implements the linear algebra the codec is built on: reduced row-echelon
form via Gauss–Jordan elimination (the paper's decoding workhorse, chosen
over plain Gaussian elimination because a fully reduced system needs no
back-substitution and linearly dependent rows surface as all-zero rows),
matrix inversion through elimination on the aggregate ``[C | I]`` (the
first stage of the paper's multi-segment decoder), rank, earliest-first
selection of independent rows, and solving ``C b = x`` for the source
blocks.

Every elimination here is one call of the engine's progressive
Gauss–Jordan op, :meth:`~repro.gf256.engine.Gf256Engine.absorb`, on an
``(n, 2n)`` work matrix ``[C | M]`` (``n`` = column count): it accepts
the candidate rows earliest-first, keeps the accepted rows in RREF, and
records in ``M`` which combination of accepted rows each one is.  The
functions below only read that state back.

All functions accept any 2-D integer array (copied as ``uint8``), return
``uint8`` arrays and never modify their inputs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FieldError, SingularMatrixError
from repro.gf256.engine import ENGINE
from repro.gf256.vector import matmul


def identity(n: int) -> np.ndarray:
    """Return the n x n identity matrix over GF(2^8)."""
    return np.eye(n, dtype=np.uint8)


def random_matrix(
    rows: int, cols: int, rng: np.random.Generator, *, density: float = 1.0
) -> np.ndarray:
    """Return a random coefficient matrix.

    With ``density == 1.0`` (the paper's evaluation setting) entries are
    drawn uniformly from the *nonzero* field elements, giving the fully
    dense matrices the paper benchmarks ("the performance will be even
    higher with sparser matrices").  With lower density each entry is
    nonzero with the given probability.
    """
    if not 0.0 < density <= 1.0:
        raise FieldError(f"density must be in (0, 1], got {density}")
    values = rng.integers(1, 256, size=(rows, cols), dtype=np.uint8)
    if density < 1.0:
        mask = rng.random(size=(rows, cols)) < density
        values = np.where(mask, values, np.uint8(0))
    return values


def random_invertible(n: int, rng: np.random.Generator) -> np.ndarray:
    """Return a uniformly random invertible n x n matrix.

    Dense random matrices over GF(2^8) are invertible with probability
    about 0.996, so rejection sampling terminates almost immediately.
    """
    while True:
        candidate = random_matrix(n, n, rng)
        if rank(candidate) == n:
            return candidate


def _as_matrix(matrix, name: str) -> np.ndarray:
    rows = np.asarray(matrix, dtype=np.uint8)
    if rows.ndim != 2:
        raise FieldError(f"{name} requires a 2-D matrix")
    return rows


def _absorb(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Absorb every row of the (m, n) uint8 ``rows`` into a fresh work matrix.

    Returns ``(work, pivot_cols, accepted)``: ``accepted`` holds the
    indices of the earliest-first independent rows (at most n), and row
    ``i`` of ``work`` is ``[R_i | M_i]`` with ``R_i = M_i @
    rows[accepted]`` in RREF, pivot ``pivot_cols[i]``.
    """
    n = rows.shape[1]
    work = np.zeros((n, 2 * n), dtype=np.uint8)
    pivot_cols = np.zeros(n, dtype=np.int64)
    accepted = ENGINE.absorb(work, 0, rows, pivot_cols)
    return work, pivot_cols, accepted


def rref(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """Return (reduced row-echelon form, rank) of a copy of ``matrix``.

    The pivot rows come first in pivot-column order; the rest are zero.
    """
    rows = _as_matrix(matrix, "rref")
    work, pivot_cols, accepted = _absorb(rows)
    found = accepted.size
    reduced = np.zeros(rows.shape, dtype=np.uint8)
    order = np.argsort(pivot_cols[:found])
    reduced[:found] = work[order, : rows.shape[1]]
    return reduced, found


def rank(matrix: np.ndarray) -> int:
    """Return the rank of ``matrix``."""
    return _absorb(_as_matrix(matrix, "rank"))[2].size


def independent_row_indices(
    matrix: np.ndarray, count: int | None = None
) -> np.ndarray:
    """Return indices of the earliest rows forming a full-rank subset.

    Greedy earliest-first selection: a row is accepted iff it is
    independent of the rows accepted before it.  This is the two-stage
    decoder's row selection: after a singular draw, callers add one
    more block and re-select over the *whole* buffer, so a late
    innovative block can rescue an early dependent prefix.

    Args:
        matrix: (rows, cols) candidate matrix.
        count: keep only the first ``count`` selected rows (default:
            full rank).

    Returns:
        Ascending int64 indices of the selected rows; fewer than ``count``
        entries if the candidates never reach that rank.

    Raises:
        FieldError: for a non-2-D matrix or a negative ``count``.
    """
    rows = _as_matrix(matrix, "independent_row_indices")
    if count is not None and count < 0:
        raise FieldError(f"count must be non-negative, got {count}")
    return _absorb(rows)[2][:count]


def select_and_invert(candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Select the earliest n independent rows and invert the matrix they form.

    Row selection plus the first stage of the paper's multi-segment
    decoder (Sec. 5.2) in one elimination over the (m, n) candidates:
    the absorb that picks the rows leaves ``M`` with ``M C = P`` for the
    selected rows ``C`` and a permutation ``P`` (row ``i`` is the unit
    row of pivot ``pivot_cols[i]``), so ``C^-1 = P^T M``.

    Returns:
        ``(indices, inverse)``: the ascending int64 indices of the n
        selected rows, and the (n, n) inverse of
        ``candidates[indices]``.

    Raises:
        SingularMatrixError: if the candidates span rank < n.
    """
    rows = _as_matrix(candidates, "select_and_invert")
    work, pivot_cols, accepted = _absorb(rows)
    n = rows.shape[1]
    if accepted.size < n:
        raise SingularMatrixError(
            f"rank {accepted.size} < {n}: only {accepted.size} independent "
            f"rows among {rows.shape[0]} candidates"
        )
    inverted = np.empty((n, n), dtype=np.uint8)
    inverted[pivot_cols] = work[:, n:]
    return accepted, inverted


def inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix via Gauss–Jordan on ``[C | I]``.

    This is exactly the first stage of the paper's multi-segment decoder
    (Sec. 5.2): eliminate on the aggregate matrix until the left block is
    the identity, leaving the inverse on the right.

    Raises:
        SingularMatrixError: if the matrix is rank deficient.
    """
    square = _as_matrix(matrix, "inverse")
    if square.shape[0] != square.shape[1]:
        raise FieldError(f"inverse requires a square matrix, got {square.shape}")
    return select_and_invert(square)[1]


def solve(coefficients: np.ndarray, coded: np.ndarray) -> np.ndarray:
    """Solve ``C b = x`` for the source-block matrix ``b`` (paper Eq. 2).

    ``coded`` is the (n, k) matrix of received coded blocks.  Runs the
    paper's two-stage form, ``matmul(inverse(C), x)``.
    """
    coefficients = np.asarray(coefficients, dtype=np.uint8)
    coded = np.asarray(coded, dtype=np.uint8)
    if coefficients.shape[0] != coded.shape[0]:
        raise FieldError(
            f"row mismatch: {coefficients.shape} coefficients vs {coded.shape} coded"
        )
    if coefficients.shape[1] != coefficients.shape[0]:
        raise FieldError("solve requires a square coefficient matrix")
    return matmul(inverse(coefficients), coded)


def is_identity(matrix: np.ndarray) -> bool:
    """Return True if ``matrix`` is a square identity matrix."""
    return (
        matrix.ndim == 2
        and matrix.shape[0] == matrix.shape[1]
        and bool(np.array_equal(matrix, identity(matrix.shape[0])))
    )


def check_inverse(matrix: np.ndarray, candidate: np.ndarray) -> bool:
    """Return True if ``candidate`` is the two-sided inverse of ``matrix``."""
    return is_identity(matmul(matrix, candidate)) and is_identity(
        matmul(candidate, matrix)
    )
