"""Dense matrix algebra over GF(2^8).

Implements the linear algebra the codec is built on: reduced row-echelon
form via Gauss–Jordan elimination (the paper's decoding workhorse, chosen
over plain Gaussian elimination because a fully reduced system needs no
back-substitution and linearly dependent rows surface as all-zero rows),
matrix inversion through elimination on the aggregate ``[C | I]`` (the
first stage of the paper's multi-segment decoder), rank, and solving
``C b = x`` for the source blocks.

All functions take/return ``uint8`` numpy arrays and never modify their
inputs unless documented otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FieldError, SingularMatrixError
from repro.gf256.engine import ENGINE
from repro.gf256.tables import INV, MUL_TABLE
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


def _eliminate(augmented: np.ndarray, pivot_cols: int) -> int:
    """Run in-place Gauss–Jordan elimination on ``augmented``.

    Only the first ``pivot_cols`` columns are searched for pivots; the
    remaining columns ride along (they hold coded payloads or an identity
    block).  Returns the rank found.  Rows are physically swapped so pivot
    ``i`` ends up in row ``i``, yielding RREF on the pivot block.
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


def rref(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """Return (reduced row-echelon form, rank) of a copy of ``matrix``."""
    work = np.array(matrix, dtype=np.uint8, copy=True)
    if work.ndim != 2:
        raise FieldError("rref requires a 2-D matrix")
    matrix_rank = _eliminate(work, work.shape[1])
    return work, matrix_rank


def rank(matrix: np.ndarray) -> int:
    """Return the rank of ``matrix``."""
    return rref(matrix)[1]


def inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix via Gauss–Jordan on ``[C | I]``.

    This is exactly the first stage of the paper's multi-segment decoder
    (Sec. 5.2): eliminate on the aggregate matrix until the left block is
    the identity, leaving the inverse on the right.

    Raises:
        SingularMatrixError: if the matrix is rank deficient.
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise FieldError(f"inverse requires a square matrix, got {matrix.shape}")
    n = matrix.shape[0]
    augmented = np.concatenate(
        [np.array(matrix, dtype=np.uint8, copy=True), identity(n)], axis=1
    )
    found = _eliminate(augmented, n)
    if found != n:
        raise SingularMatrixError(f"matrix has rank {found} < {n}")
    return np.ascontiguousarray(augmented[:, n:])


def solve(coefficients: np.ndarray, coded: np.ndarray) -> np.ndarray:
    """Solve ``C b = x`` for the source-block matrix ``b`` (paper Eq. 2).

    ``coded`` is the (n, k) matrix of received coded blocks.  Equivalent to
    ``matmul(inverse(C), x)`` but performs a single elimination on the
    aggregate ``[C | x]``, which is the paper's single-segment decoding
    dataflow.
    """
    if coefficients.shape[0] != coded.shape[0]:
        raise FieldError(
            f"row mismatch: {coefficients.shape} coefficients vs {coded.shape} coded"
        )
    n = coefficients.shape[0]
    if coefficients.shape[1] != n:
        raise FieldError("solve requires a square coefficient matrix")
    augmented = np.concatenate(
        [
            np.array(coefficients, dtype=np.uint8, copy=True),
            np.array(coded, dtype=np.uint8, copy=True),
        ],
        axis=1,
    )
    found = _eliminate(augmented, n)
    if found != n:
        raise SingularMatrixError(f"coefficient matrix has rank {found} < {n}")
    return np.ascontiguousarray(augmented[:, n:])


def independent_row_indices(
    matrix: np.ndarray, count: int | None = None
) -> np.ndarray:
    """Return indices of the earliest rows forming a full-rank subset.

    Greedy earliest-first selection: each candidate row is forward-reduced
    against the basis built so far (one engine ``fold_rows`` pass over all
    live pivots) and accepted iff it is innovative, stopping once
    ``count`` independent rows are found.  This is the row-selection kernel behind
    the two-stage decoder's retry path: after a singular draw, callers add
    one more block and re-select over the *whole* buffer, so a late
    innovative block can rescue an early dependent prefix.

    Args:
        matrix: (rows, cols) uint8 candidate matrix.
        count: stop after this many independent rows (default: full rank).

    Returns:
        Ascending int64 indices of the selected rows; fewer than ``count``
        entries if the candidates never reach that rank.
    """
    if matrix.ndim != 2:
        raise FieldError("independent_row_indices requires a 2-D matrix")
    rows, cols = matrix.shape
    target = min(rows, cols) if count is None else min(count, rows, cols)
    basis = np.zeros((target, cols), dtype=np.uint8)
    pivot_cols = np.empty(target, dtype=np.int64)
    chosen: list[int] = []
    for index in range(rows):
        held = len(chosen)
        if held == target:
            break
        vector = matrix[index].copy()
        if held:
            ENGINE.fold_rows(vector, basis[:held], vector[pivot_cols[:held]])
        support = np.nonzero(vector)[0]
        if support.size == 0:
            continue
        pivot = int(support[0])
        lead = int(vector[pivot])
        if lead != 1:
            vector = MUL_TABLE[INV[lead]][vector]
        # Keep the basis fully reduced so the batched forward reduction
        # above stays a single pass (pivot columns are disjoint in RREF).
        ENGINE.axpy_rows(basis[:held], basis[:held, pivot].copy(), vector)
        basis[held] = vector
        pivot_cols[held] = pivot
        chosen.append(index)
    return np.array(chosen, dtype=np.int64)


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
