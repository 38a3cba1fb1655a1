"""The GF(2^8) bulk-multiply engine.

Every bulk field operation in the library (batch encode, progressive
decode, recoding, and every elimination of :mod:`repro.gf256.matrix`:
rref, rank, inversion, solve and row selection) funnels through one
:class:`Gf256Engine`.  It has two field operations:

* :meth:`Gf256Engine.matmul` — the matrix product (paper Eq. 1);
* :meth:`Gf256Engine.absorb_many` — progressive Gauss–Jordan intake
  of row batches into ``[C | M]`` work matrices, the library's one
  elimination body: one call absorbs a whole receiving cohort's rows,
  each job into its own :class:`AbsorbTarget`.
  :meth:`Gf256Engine.absorb` is the one-job form.

and two implementations of both:

* ``wide`` (the default) — the compiled kernel of
  :mod:`repro.gf256.regionops`.  ``matmul`` is register-blocked: on
  AVX-512 a block of output rows times 64-byte lanes stays in vector
  registers while every source row is loaded once per block, so no
  intermediate product row and no per-pass reload of the output
  exists.  ``absorb_many`` runs every job in one C call, one fused
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
  product table (the seed formulation), with absorb as a numpy loop
  run once per job.  Tests force it to cross-validate the kernel.

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


class AbsorbTarget:
    """An elimination target checked once: ``[C | M]`` and its pivots.

    ``work`` is a C-contiguous (n, 2n) uint8 control plane and
    ``pivot_cols`` a contiguous (n,) int64 array.  Their layout is
    checked and their kernel addresses are taken here, once, so an
    owner that never reallocates them (a
    :class:`~repro.rlnc.decoder.ProgressiveDecoder` clears them in
    place) pays no per-intake validation or pointer conversion.

    Raises:
        FieldError: on any other layout.
    """

    __slots__ = ("work", "pivot_cols", "n", "_work_fields", "_pivots")

    def __init__(self, work: np.ndarray, pivot_cols: np.ndarray) -> None:
        _as_u8(work)
        try:
            address, stride, n, pivots = regionops.absorb_target(work, pivot_cols)
        except ValueError as exc:
            raise FieldError(f"absorb target: {exc}") from None
        self.work = work
        self.pivot_cols = pivot_cols
        self.n = n
        self._work_fields = (address, stride, n)
        self._pivots = pivots


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

    def absorb_many(
        self,
        jobs: list[tuple[AbsorbTarget, int, int, int]],
        incoming: np.ndarray,
    ) -> tuple[np.ndarray, list[int]]:
        """Progressive Gauss–Jordan intake of several row batches at once.

        Job ``(target, held, start, stop)`` absorbs rows ``[start,
        stop)`` of the (R, n) ``incoming`` matrix into ``target``,
        whose rows ``[0, held)`` are in RREF with pivots
        ``pivot_cols[:held]`` and the rest zero.  Every row is reduced
        against the held rows; a row that reduces to zero is dropped,
        any other is normalised on its first nonzero column (transform
        column ``n + held`` set to 1 first, so the scale is
        attributed), eliminated from the held rows and appended as row
        ``held``.  Work matrices and pivots are updated in place; a
        job stops at full rank.  Jobs run in order, so two jobs on one
        target must not share a call (the second's ``held`` would be
        stale).

        The compiled kernel runs every job in one C call: one pointer
        conversion for ``incoming`` and one for the result, whatever
        the job count.  The table formulation (the oracle, and the
        no-compiler path) runs its numpy elimination per job; the
        stored RREF is unique, so both leave byte-identical state.

        Returns:
            ``(accepted, counts)``: job ``i``'s accepted rows, as int64
            indices relative to its ``start`` and in order, are
            ``accepted[start : start + counts[i]]`` (row ``j`` of them
            went to ``work[held + j]``).
        """
        _as_u8(incoming)
        if incoming.ndim != 2:
            raise FieldError("absorb requires a 2-D incoming matrix")
        rows, n = incoming.shape
        kernel = self._kernel()
        if kernel and (incoming.strides[0] < 0 or (n > 1 and incoming.strides[1] != 1)):
            incoming = np.ascontiguousarray(incoming)
        accepted = np.empty(rows, dtype=np.int64)
        base = stride = out = 0
        if kernel:
            base, stride = incoming.ctypes.data, incoming.strides[0]
            out = accepted.ctypes.data
        # One regionops job row per job: the target's cached addresses,
        # then the job's own fields (see regionops.JOB_FIELDS).
        words: list[int] = []
        for target, held, start, stop in jobs:
            if target.n != n or not 0 <= held <= n or not 0 <= start <= stop <= rows:
                raise FieldError(
                    f"absorb job (held {held}, rows [{start}, {stop})) does not "
                    f"fit an order-{target.n} target and a ({rows}, {n}) batch"
                )
            words += target._work_fields
            words += (held, base + start * stride, stride, stop - start)
            words += (target._pivots, out + 8 * start)
        if not kernel:
            counts = []
            for target, held, start, stop in jobs:
                taken = self._absorb_table(
                    target.work, held, incoming[start:stop], target.pivot_cols
                )
                accepted[start : start + taken.size] = taken
                counts.append(taken.size)
            return accepted, counts
        if not jobs:
            return accepted, []
        table = np.array(words, dtype=np.uint64).reshape(-1, regionops.JOB_FIELDS)
        regionops.absorb_many(table)
        held_after = table[:, regionops.JOB_HELD].tolist()
        return accepted, [after - job[1] for after, job in zip(held_after, jobs)]

    def absorb(
        self,
        work: np.ndarray,
        held: int,
        incoming: np.ndarray,
        pivot_cols: np.ndarray,
    ) -> np.ndarray:
        """One batch into one work matrix: :meth:`absorb_many` with one job.

        ``work`` and ``pivot_cols`` are checked as an
        :class:`AbsorbTarget`; arguments are as in :meth:`absorb_many`.

        Returns:
            The int64 indices of the accepted ``incoming`` rows, in
            order (row ``i`` of the result went to ``work[held + i]``).
        """
        target = AbsorbTarget(work, pivot_cols)
        stop = incoming.shape[0] if incoming.ndim else 0
        accepted, counts = self.absorb_many([(target, held, 0, stop)], incoming)
        return accepted[: counts[0]]

    def _absorb_table(
        self,
        work: np.ndarray,
        held: int,
        incoming: np.ndarray,
        pivot_cols: np.ndarray,
    ) -> np.ndarray:
        """The oracle elimination of one job (see :meth:`absorb_many`).

        Reduces the batch against the held rows with one matmul, then
        finishes row by row.
        """
        n = work.shape[0]
        m = incoming.shape[0]
        if m == 0 or held == n:
            return np.empty(0, dtype=np.int64)
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
