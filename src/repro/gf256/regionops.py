"""Compile-on-demand loader for the wide region-op kernel.

The ``wide`` engine backend's fast path is ``_regionops.c`` — a
dependency-free C translation unit with a register-blocked matmul (and
its one-row case, ``fold_rows``) and the progressive Gauss–Jordan
``gf256_absorb_many`` built on fused multiply-accumulate region passes,
whose lane multiply is GFNI or the nibble shuffle, picked at runtime per
CPU (module docs there; :data:`SIMD_LEVELS`).  ``absorb_many`` is the
one elimination entry point: it takes a table of jobs, one row of
:data:`JOB_FIELDS` words per work matrix, so a whole receiving cohort's
decoders absorb a round in one C call.  Callers that keep their work
matrices for their lifetime validate them once (:func:`absorb_target`)
and reuse the addresses; :meth:`~repro.gf256.engine.Gf256Engine.absorb_many`
is the one place that writes job rows.
This module owns the kernel's whole lifecycle:

* compile the bundled source with the host's ``cc`` into a content-
  addressed shared object under a per-user cache directory (one compile
  per source revision per machine, ~100 ms, then reused forever);
* load it with :mod:`ctypes` and initialize its nibble tables from the
  canonical :data:`~repro.gf256.tables.MUL_TABLE`;
* degrade gracefully: any failure (no compiler, read-only filesystem,
  unloadable object) marks the kernel unavailable and the engine falls
  back to its table formulation — never an import error.

Environment knobs:

* ``REPRO_WIDE_KERNEL=0`` disables the compiled kernel outright (the
  table fallback is then used even where ``cc`` exists — how the test
  suite runs the no-compiler path).
* ``REPRO_WIDE_KERNEL_CACHE`` overrides the shared-object cache
  directory (default ``~/.cache/repro/regionops``).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

#: Environment variable that disables the compiled kernel when "0".
KERNEL_ENV_VAR = "REPRO_WIDE_KERNEL"

#: Environment variable overriding the shared-object cache directory.
CACHE_ENV_VAR = "REPRO_WIDE_KERNEL_CACHE"

_SOURCE = Path(__file__).with_name("_regionops.c")

#: The kernel's dispatch levels, by number: ``SIMD_LEVELS[level]``.
SIMD_LEVELS = ("scalar", "avx2", "avx512bw", "avx512bw+gfni")

_lib: ctypes.CDLL | None = None
_load_attempted = False
_load_error: str | None = None


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "regionops"


def _compile(source: Path, target: Path) -> None:
    """Compile the kernel into ``target`` (atomic rename via temp file)."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        suffix=".so", prefix=target.stem + ".", dir=target.parent
    )
    os.close(fd)
    try:
        subprocess.run(
            ["cc", "-O3", "-fPIC", "-shared", "-o", temp_name, str(source)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(temp_name, target)
    finally:
        if os.path.exists(temp_name):
            os.unlink(temp_name)


def _declare(lib: ctypes.CDLL) -> None:
    # Arrays go over as ``array.ctypes.data`` (a plain int) into
    # ``c_void_p``: half the cost of ``ctypes.data_as``, which matters at
    # the small shapes where a call's C work is a few microseconds.
    size_t = ctypes.c_size_t
    void_p = ctypes.c_void_p
    lib.gf256_init.argtypes = [void_p]
    lib.gf256_init.restype = None
    lib.gf256_simd_level.argtypes = []
    lib.gf256_simd_level.restype = ctypes.c_int
    lib.gf256_cap_simd_level.argtypes = [ctypes.c_int]
    lib.gf256_cap_simd_level.restype = None
    lib.gf256_matmul.argtypes = [
        void_p,
        void_p,
        void_p,
        size_t,
        size_t,
        size_t,
        size_t,
    ]
    lib.gf256_matmul.restype = None
    lib.gf256_fold_rows.argtypes = [void_p, void_p, size_t, void_p, size_t, size_t]
    lib.gf256_fold_rows.restype = None
    lib.gf256_absorb_many.argtypes = [void_p, size_t]
    lib.gf256_absorb_many.restype = size_t


def _load() -> ctypes.CDLL | None:
    global _lib, _load_attempted, _load_error
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get(KERNEL_ENV_VAR, "1") == "0":
        _load_error = f"disabled via {KERNEL_ENV_VAR}=0"
        return None
    try:
        source_text = _SOURCE.read_bytes()
        digest = hashlib.sha256(source_text).hexdigest()[:16]
        target = _cache_dir() / f"regionops-{digest}.so"
        if not target.is_file():
            _compile(_SOURCE, target)
        lib = ctypes.CDLL(str(target))
        _declare(lib)
        from repro.gf256.tables import MUL_TABLE

        table = np.ascontiguousarray(MUL_TABLE)
        lib.gf256_init(table.ctypes.data)
        _lib = lib
    except Exception as exc:  # no cc, sandboxed fs, bad object, ...
        _load_error = f"{type(exc).__name__}: {exc}"
        _lib = None
    return _lib


def kernel_available() -> bool:
    """True when the compiled kernel loaded (or can load) on this host."""
    return _load() is not None


def load_error() -> str | None:
    """Why the kernel is unavailable (None when it loaded fine)."""
    _load()
    return _load_error


def simd_level() -> int:
    """The kernel's dispatch level (an index into :data:`SIMD_LEVELS`).

    0 = scalar, 1 = AVX2, 2 = AVX-512BW, 3 = AVX-512BW + GFNI; -1 when
    the kernel is unavailable.
    """
    lib = _load()
    if lib is None:
        return -1
    return int(lib.gf256_simd_level())


@contextlib.contextmanager
def _cap_simd_level_for_tests(level: int):
    """Run the block with the kernel's dispatch level capped at ``level``.

    The cap can only lower the level the CPU supports, so a test can run
    every loop this host has (AVX2 and scalar included) against the
    oracle; the detected level is restored on exit.  Yields the level in
    effect.  Private: the library never lowers its own level.
    """
    lib = _load()
    if lib is None:
        raise RuntimeError(f"wide kernel unavailable: {_load_error}")
    lib.gf256_cap_simd_level(level)
    try:
        yield int(lib.gf256_simd_level())
    finally:
        lib.gf256_cap_simd_level(len(SIMD_LEVELS) - 1)


def _check_row_view(array: np.ndarray, name: str) -> int:
    """Validate a 2-D uint8 view with contiguous rows; return row stride."""
    if array.dtype != np.uint8 or array.ndim != 2:
        raise ValueError(f"{name} must be a 2-D uint8 array")
    # numpy gives an empty (0, k) array strides (0, 0): no rows to check.
    if array.shape[0] and array.shape[1] > 1 and array.strides[1] != 1:
        raise ValueError(f"{name} must have contiguous rows")
    return array.strides[0]


def matmul_into(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``out[:] = a @ b`` over GF(2^8); ``out`` may have strided rows."""
    lib = _load()
    stride = _check_row_view(out, "out")
    m, n = a.shape
    lib.gf256_matmul(
        a.ctypes.data, b.ctypes.data, out.ctypes.data, m, n, b.shape[1], stride
    )


def fold_rows(dst: np.ndarray, rows: np.ndarray, factors: np.ndarray) -> None:
    """``dst ^= XOR_i factors[i] * rows[i]``; zero factors skipped."""
    lib = _load()
    stride = _check_row_view(rows, "rows")
    lib.gf256_fold_rows(
        dst.ctypes.data,
        rows.ctypes.data,
        stride,
        factors.ctypes.data,
        rows.shape[0],
        rows.shape[1],
    )


#: Words per :func:`absorb_many` job: work address, work row stride, n,
#: held (written back), incoming address, incoming row stride, m, pivot
#: columns address, accepted address.  Strides are in bytes.
JOB_FIELDS = 9
#: Column of the held count in a job row.
JOB_HELD = 3


def absorb_target(
    work: np.ndarray, pivot_cols: np.ndarray
) -> tuple[int, int, int, int]:
    """Check an elimination target once; return ``(work, stride, n, pivots)``.

    ``work`` must be a C-contiguous (n, 2n) uint8 control plane and
    ``pivot_cols`` a contiguous (n,) int64 array.  The addresses stay
    valid as long as neither array is reallocated.

    Raises:
        ValueError: on any other layout.
    """
    n = work.shape[0] if work.ndim == 2 else -1
    if work.dtype != np.uint8 or work.shape != (n, 2 * n):
        raise ValueError("work must be a (n, 2n) uint8 matrix")
    if not work.flags.c_contiguous:
        raise ValueError("work must be C-contiguous")
    _check_int64(pivot_cols, "pivot_cols", n)
    return work.ctypes.data, work.strides[0], n, pivot_cols.ctypes.data


def _check_int64(array: np.ndarray, name: str, size: int) -> None:
    if array.dtype != np.int64 or array.ndim != 1:
        raise ValueError(f"{name} must be a 1-D int64 array")
    if not array.flags.c_contiguous or array.shape[0] < size:
        raise ValueError(f"{name} must be contiguous with {size} entries")


def absorb_many(jobs: np.ndarray) -> int:
    """Run every job of a ``(J, JOB_FIELDS)`` uint64 table in one C call.

    Job ``j`` appends every innovative row of its ``m`` incoming rows
    to its work matrix, the C-contiguous (n, 2n) control plane ``[C |
    M]`` whose rows ``[0, held)`` are in RREF (pivot into
    ``pivot_cols[held + i]``, incoming index into ``accepted[i]``), in
    table order; its held count (column :data:`JOB_HELD`) is advanced
    in place by the rows it accepted.  Addresses are taken on trust:
    build them from arrays checked by :func:`absorb_target`, incoming
    rows that are contiguous with a forward row stride, and int64
    ``accepted`` space for ``m`` rows.  Returns the rows accepted over
    all jobs.
    """
    return _load().gf256_absorb_many(jobs.ctypes.data, jobs.shape[0])


def _reset_for_tests() -> None:
    """Drop the cached load state so env-var changes take effect."""
    global _lib, _load_attempted, _load_error
    _lib = None
    _load_attempted = False
    _load_error = None
