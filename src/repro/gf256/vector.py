"""Vectorized GF(2^8) row and matrix operations on numpy arrays.

All bulk coding work in the library funnels through these functions.  They
operate on ``uint8`` arrays and use the dense 256x256 product table, which
is the fastest portable formulation in numpy (a single fancy-indexing
gather per row operation).

Two independent back-ends are provided for multiplication so that each can
validate the other, mirroring the paper's loop-based vs table-based pair:

* :func:`mul_scalar_table` — gather from ``MUL_TABLE`` (default).
* :func:`mul_scalar_loop` — bit-serial shift-and-add over the whole array,
  eight iterations of vectorized XOR/shift, the exact dataflow of the
  paper's loop-based SIMD/GPU kernels.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FieldError
from repro.gf256.engine import ENGINE
from repro.gf256.tables import EXP, LOG, LOG_ZERO_SENTINEL, MUL_TABLE, RIJNDAEL_POLY


def _as_u8(array: np.ndarray) -> np.ndarray:
    if array.dtype != np.uint8:
        raise FieldError(f"GF(2^8) arrays must be uint8, got {array.dtype}")
    return array


def mul_scalar_table(row: np.ndarray, coefficient: int) -> np.ndarray:
    """Return ``coefficient * row`` using the dense product table."""
    _as_u8(row)
    return MUL_TABLE[coefficient][row]


def mul_scalar_loop(row: np.ndarray, coefficient: int) -> np.ndarray:
    """Return ``coefficient * row`` with the shift-and-add loop, vectorized.

    Each of the (up to) eight iterations inspects one bit of the
    coefficient and conditionally XORs the progressively-doubled row into
    the accumulator — the same inner loop the paper's loop-based kernels
    run per 4-byte word, applied here across the entire row at once.
    """
    _as_u8(row)
    acc = np.zeros_like(row)
    shifted = row.astype(np.uint16)
    coeff = coefficient
    while coeff:
        if coeff & 1:
            acc ^= shifted.astype(np.uint8)
        coeff >>= 1
        shifted <<= 1
        overflow = shifted & 0x100
        shifted ^= (overflow >> 8) * RIJNDAEL_POLY
    return acc


def mul_elementwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise product of two equally-shaped uint8 arrays."""
    _as_u8(a)
    _as_u8(b)
    if a.shape != b.shape:
        raise FieldError(f"shape mismatch: {a.shape} vs {b.shape}")
    return MUL_TABLE[a, b]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2^8).

    ``a`` is (m, n) and ``b`` is (n, k); the result is (m, k).  This is
    Eq. (1) of the paper when ``a`` is the coefficient matrix and ``b`` the
    source-block matrix.  Runs on the process-wide
    :class:`repro.gf256.engine.Gf256Engine`.
    """
    return ENGINE.matmul(a, b)


def matmul_log_domain(log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """Matrix product where both operands are already in the log domain.

    This is the streaming-server formulation of Sec. 5.1.2: operands have
    been preprocessed by :func:`to_log_domain` once, and every scalar
    multiply inside the product is a single ``EXP`` gather (paper Fig. 5).
    Returns the product in the *normal* domain.
    """
    if log_a.ndim != 2 or log_b.ndim != 2 or log_a.shape[1] != log_b.shape[0]:
        raise FieldError("log-domain matmul requires compatible 2-D operands")
    m, n = log_a.shape
    k = log_b.shape[1]
    out = np.zeros((m, k), dtype=np.uint8)
    for i in range(n):
        log_col = log_a[:, i].astype(np.uint16)
        log_row = log_b[i].astype(np.uint16)
        live_rows = np.nonzero(log_col != LOG_ZERO_SENTINEL)[0]
        if live_rows.size == 0:
            continue
        sums = log_col[live_rows][:, None] + log_row[None, :]
        partial = EXP[sums]
        partial[:, log_row == LOG_ZERO_SENTINEL] = 0
        out[live_rows] ^= partial
    return out


def to_log_domain(data: np.ndarray) -> np.ndarray:
    """Transform an array to the log domain (zero -> 0xFF sentinel)."""
    _as_u8(data)
    return LOG[data]


def from_log_domain(log_data: np.ndarray) -> np.ndarray:
    """Invert :func:`to_log_domain`."""
    _as_u8(log_data)
    out = EXP[log_data.astype(np.uint16)]
    out[log_data == LOG_ZERO_SENTINEL] = 0
    return out
