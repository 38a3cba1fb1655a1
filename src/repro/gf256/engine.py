"""The GF(2^8) bulk-multiply engine.

Every bulk field operation in the library (batch encode, progressive
decode, recoding, and every elimination of :mod:`repro.gf256.matrix`:
rref, rank, inversion, solve and row selection) funnels through one
:class:`Gf256Engine`.  It has two field operations:

* :meth:`Gf256Engine.matmul` — the matrix product (paper Eq. 1);
* :meth:`Gf256Engine.absorb` — a batch of progressive Gauss–Jordan
  intake into an ``[C | M]`` work matrix, the library's one
  elimination body.

and two implementations of both:

* ``wide`` (the default) — the compiled kernel of
  :mod:`repro.gf256.regionops`.  ``matmul`` is register-blocked: on
  AVX-512 a block of output rows times 64-byte lanes stays in vector
  registers while every source row is loaded once per block, so no
  intermediate product row and no per-pass reload of the output
  exists.  ``absorb`` runs the whole batch in one C call, one fused
  multiply-accumulate pass per nonzero factor.  The lane multiply is
  one GFNI ``vgf2p8mulb`` where the CPU has it (its hard-wired
  polynomial 0x11B is this library's), else the nibble shuffle of
  arXiv:1909.02871 (``c*x = T_lo[c][x & 0xF] ^ T_hi[c][x >> 4]`` with
  both 16-entry tables held in registers).  The kernel picks
  AVX-512BW+GFNI, AVX-512BW, AVX2 or scalar code once per call at
  runtime (:func:`repro.gf256.regionops.simd_level`); AVX2 and scalar
  run one region pass per (row, coefficient).  When the kernel does
  not load (no C compiler, ``REPRO_WIDE_KERNEL=0``) the engine falls
  back to the table formulation below, so it works on every host —
  just slower.
* ``table`` — the reference oracle: gathers from the dense 256x256
  product table (the seed formulation), with ``absorb`` as a numpy
  loop.  Tests force it to cross-validate the kernel.

Select one per engine (``Gf256Engine("table")``) or on the process-wide
instance (``ENGINE.set_backend("table")``).  Unknown names raise
:class:`~repro.errors.FieldError` listing :data:`BACKENDS`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FieldError
from repro.gf256 import regionops
from repro.gf256.tables import INV, MUL_TABLE

#: Valid backend names; the first is the default.
BACKENDS = ("wide", "table")


def _as_u8(array: np.ndarray) -> np.ndarray:
    if array.dtype != np.uint8:
        raise FieldError(f"GF(2^8) arrays must be uint8, got {array.dtype}")
    return array


def _as_rows(array: np.ndarray) -> np.ndarray:
    """A 2-D uint8 matrix whose rows are contiguous; the row stride is free."""
    _as_u8(array)
    if array.ndim != 2:
        raise FieldError("matmul out must be 2-D")
    m, k = array.shape
    if m and k > 1 and array.strides[1] != 1:
        raise FieldError("matmul out must have contiguous rows")
    return array


class Gf256Engine:
    """Dispatcher between the compiled kernel and the table oracle.

    Args:
        backend: one of :data:`BACKENDS` (default ``wide``).
    """

    def __init__(self, backend: str = "wide") -> None:
        self.set_backend(backend)

    @property
    def backend(self) -> str:
        """The configured backend name."""
        return self._backend

    @property
    def wide_kernel_available(self) -> bool:
        """True when the compiled region-op kernel backs the wide path."""
        return regionops.kernel_available()

    def set_backend(self, backend: str) -> None:
        """Force one backend for every operation.

        Raises:
            FieldError: for unknown backend names, listing the valid
                :data:`BACKENDS`.
        """
        if backend not in BACKENDS:
            raise FieldError(
                f"unknown GF backend {backend!r}; expected one of {BACKENDS}"
            )
        self._backend = backend

    def _kernel(self) -> bool:
        """True when this call runs on the compiled kernel."""
        return self._backend == "wide" and regionops.kernel_available()

    # -- matrix product ----------------------------------------------------

    def matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Matrix product over GF(2^8) (paper Eq. 1).

        Args:
            a: (m, n) uint8 coefficient matrix.
            b: (n, k) uint8 source matrix.
            out: optional (m, k) uint8 destination, overwritten in
                place and returned.  Rows must be contiguous but the
                row stride is free (a column sub-view of a larger
                matrix works) — the kernel accumulates straight into it
                with no intermediate product matrix.

        Returns:
            The (m, k) uint8 product; byte-identical across backends.
        """
        _as_u8(a)
        _as_u8(b)
        if a.ndim != 2 or b.ndim != 2:
            raise FieldError("matmul requires 2-D operands")
        if a.shape[1] != b.shape[0]:
            raise FieldError(f"inner dimensions differ: {a.shape} x {b.shape}")
        m, n = a.shape
        k = b.shape[1]
        if out is None:
            out = np.empty((m, k), dtype=np.uint8)
        else:
            _as_rows(out)
            if out.shape != (m, k):
                raise FieldError(f"matmul out shape {out.shape} != {(m, k)}")
        if m == 0 or k == 0:
            return out
        if self._kernel():
            regionops.matmul_into(
                out, np.ascontiguousarray(a), np.ascontiguousarray(b)
            )
            return out
        # Per-inner-index dense-table gather (the seed formulation).
        out[:] = 0
        for i in range(n):
            column = a[:, i]
            nonzero = np.nonzero(column)[0]
            if nonzero.size:
                out[nonzero] ^= MUL_TABLE[column[nonzero]][:, b[i]]
        return out

    # -- progressive elimination -------------------------------------------

    def absorb(
        self,
        work: np.ndarray,
        held: int,
        incoming: np.ndarray,
        pivot_cols: np.ndarray,
    ) -> np.ndarray:
        """Progressive Gauss–Jordan intake of a coefficient batch.

        ``work`` is the (n, 2n) control plane ``[C | M]``: rows
        ``[0, held)`` in RREF with pivots ``pivot_cols[:held]``, the
        rest zero.  Every row of the (m, n) ``incoming`` matrix is
        reduced against the held rows; a row that reduces to zero is
        dropped, any other is normalised on its first nonzero column
        (transform column ``n + held`` set to 1 first, so the scale is
        attributed), eliminated from the held rows and appended as row
        ``held``.  ``work`` and ``pivot_cols`` are updated in place;
        intake stops at full rank.

        The compiled kernel does the whole batch in one call.  The
        table formulation (the oracle, and the no-compiler path)
        reduces the batch against the held rows with one matmul and
        then finishes row by row; the stored RREF is unique, so both
        leave byte-identical state.

        Returns:
            The int64 indices of the accepted ``incoming`` rows, in
            order (row ``i`` of the result went to ``work[held + i]``).
        """
        _as_u8(work)
        _as_u8(incoming)
        n = work.shape[0] if work.ndim == 2 else -1
        if work.shape != (n, 2 * n) or not work.flags.c_contiguous:
            raise FieldError("absorb requires a C-contiguous (n, 2n) work matrix")
        if incoming.ndim != 2 or incoming.shape[1] != n:
            raise FieldError(f"absorb requires an (m, {n}) incoming matrix")
        if pivot_cols.dtype != np.int64 or pivot_cols.shape != (n,):
            raise FieldError(f"absorb requires ({n},) int64 pivot columns")
        if not 0 <= held <= n:
            raise FieldError(f"held rank {held} outside [0, {n}]")
        m = incoming.shape[0]
        if m == 0 or held == n:
            return np.empty(0, dtype=np.int64)
        if self._kernel():
            if incoming.strides[0] < 0 or (n > 1 and incoming.strides[1] != 1):
                incoming = np.ascontiguousarray(incoming)
            accepted = np.empty(m, dtype=np.int64)
            count = regionops.absorb(work, held, incoming, pivot_cols, accepted)
            return accepted[:count]
        rows = np.zeros((m, 2 * n), dtype=np.uint8)
        rows[:, :n] = incoming
        if held:
            factors = incoming[:, pivot_cols[:held]]
            if factors.any():
                rows ^= self.matmul(factors, work[:held])
        accepted = []
        for index in range(m):
            row = rows[index]
            support = np.flatnonzero(row[:n])
            if support.size == 0:
                continue
            pivot = int(support[0])
            row[n + held] = 1
            lead = int(row[pivot])
            if lead != 1:
                row[:] = MUL_TABLE[INV[lead]][row]
            # Eliminate the pivot from the batch's later rows and the
            # held rows.
            for block in (rows[index + 1 :], work[:held]):
                live = np.flatnonzero(block[:, pivot])
                block[live] ^= MUL_TABLE[block[live, pivot]][:, row]
            work[held] = row
            pivot_cols[held] = pivot
            accepted.append(index)
            held += 1
            if held == n:
                break
        return np.asarray(accepted, dtype=np.int64)


#: The process-wide engine instance every library hot path routes through.
ENGINE = Gf256Engine()
