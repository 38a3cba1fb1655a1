"""``Gf256Engine.absorb_many``: one elimination call for a whole cohort.

Each job of one ``absorb_many`` call must leave its work matrix, its
pivots and its accepted indices byte-identical to its own
``Gf256Engine("table").absorb`` call, on the table oracle and on the
kernel at every SIMD level this host has.  Every work matrix is a view
fenced by guard bytes, so a pass that writes past its job's rows shows.
Jobs with no rows and jobs already at full rank accept nothing.
"""

import contextlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.gf256 import regionops
from repro.gf256.engine import AbsorbTarget, Gf256Engine
from repro.rlnc.block import CodingParams
from repro.rlnc.decoder import ProgressiveDecoder

ORACLE = Gf256Engine("table")

#: Guard bytes around each work matrix (odd, and longer than a vector).
GUARD = 67

#: Orders whose 2n-byte rows end inside, at and past a 64-byte vector.
ORDERS = (1, 3, 5, 31, 32, 33, 40)


def backends():
    """The table oracle, then the kernel at every dispatch level."""
    yield pytest.param("table", -1, id="table")
    for level in range(len(regionops.SIMD_LEVELS) - 1, -1, -1):
        yield pytest.param("wide", level, id=regionops.SIMD_LEVELS[level])


@contextlib.contextmanager
def engine_at(backend, level):
    if backend == "table":
        yield Gf256Engine("table")
        return
    if not regionops.kernel_available():
        pytest.skip(f"wide kernel unavailable: {regionops.load_error()}")
    if regionops.simd_level() < level:
        pytest.skip(f"host lacks {regionops.SIMD_LEVELS[level]}")
    with regionops._cap_simd_level_for_tests(level):
        yield Gf256Engine("wide")


def fenced_work(n, rng):
    """A zeroed C-contiguous (n, 2n) view with random guard bytes around it."""
    host = rng.integers(0, 256, size=2 * n * n + 2 * GUARD, dtype=np.uint8)
    work = host[GUARD : GUARD + 2 * n * n].reshape(n, 2 * n)
    work[:] = 0
    return host, work


def make_jobs(n, shapes, rng):
    """Work matrices pre-filled to a random rank, and their incoming rows.

    ``shapes`` holds ``(pre, m)`` per job: ``pre`` random rows absorbed
    first (the held rank; ``n + 2`` rows usually reach full rank), then
    ``m`` incoming rows.  Incoming rows of every job are stacked in one
    strided matrix, as a round's frame matrix holds them.
    """
    jobs = []
    start = 0
    for pre, m in shapes:
        host, work = fenced_work(n, rng)
        pivot_cols = np.zeros(n, dtype=np.int64)
        rows = rng.integers(0, 256, size=(pre, n), dtype=np.uint8)
        rows[rng.random(pre) < 0.2] = 0
        held = ORACLE.absorb(work, 0, rows, pivot_cols).size
        jobs.append((host, work, pivot_cols, held, start, start + m))
        start += m
    frames = rng.integers(0, 256, size=(start, n + 9), dtype=np.uint8)
    incoming = frames[:, 3 : 3 + n]
    # Some dependent rows: zeros, and repeats of an earlier row.
    if start:
        incoming[rng.random(start) < 0.15] = 0
        repeat = rng.random(start) < 0.15
        incoming[repeat] = incoming[0]
    return jobs, incoming


def check_against_oracle(engine, n, shapes, seed):
    rng = np.random.default_rng(seed)
    jobs, incoming = make_jobs(n, shapes, rng)
    expected = []
    for host, work, pivot_cols, held, start, stop in jobs:
        work_copy, pivots_copy = work.copy(), pivot_cols.copy()
        taken = ORACLE.absorb(work_copy, held, incoming[start:stop], pivots_copy)
        expected.append((host.copy(), work_copy, pivots_copy, taken))
    accepted, counts = engine.absorb_many(
        [
            (AbsorbTarget(work, pivot_cols), held, start, stop)
            for _, work, pivot_cols, held, start, stop in jobs
        ],
        incoming,
    )
    assert len(counts) == len(jobs)
    for job, want, count in zip(jobs, expected, counts):
        host, work, pivot_cols, held, start, _ = job
        host_before, work_want, pivots_want, taken = want
        assert count == taken.size
        assert np.array_equal(accepted[start : start + count], taken)
        assert np.array_equal(work, work_want)
        assert np.array_equal(pivot_cols[: held + count], pivots_want[: held + count])
        assert np.array_equal(host[:GUARD], host_before[:GUARD])
        assert np.array_equal(host[-GUARD:], host_before[-GUARD:])


job_shapes = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 7)), min_size=1, max_size=6
)


class TestAgainstPerJobAbsorb:
    @pytest.mark.parametrize("backend, level", backends())
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(ORDERS), job_shapes, st.integers(0, 2**31))
    def test_every_job_matches_its_own_absorb(self, backend, level, n, shapes, seed):
        with engine_at(backend, level) as engine:
            check_against_oracle(engine, n, shapes, seed)

    @pytest.mark.parametrize("backend, level", backends())
    def test_empty_and_full_rank_jobs_accept_nothing(self, backend, level):
        # m = 0 between live jobs, and held = n (pre far above n).
        shapes = [(2, 3), (0, 0), (40, 4), (5, 0), (1, 6), (40, 0)]
        with engine_at(backend, level) as engine:
            for n in (4, 33):
                check_against_oracle(engine, n, shapes, seed=n)

    @pytest.mark.parametrize("backend, level", backends())
    def test_no_jobs(self, backend, level):
        with engine_at(backend, level) as engine:
            accepted, counts = engine.absorb_many([], np.zeros((3, 4), np.uint8))
        assert counts == [] and accepted.shape == (3,)


class TestValidation:
    def test_target_layout_is_checked_once_with_field_error(self):
        work = np.zeros((4, 8), dtype=np.uint8)
        with pytest.raises(FieldError):
            AbsorbTarget(work[:, :6], np.zeros(4, np.int64))
        with pytest.raises(FieldError):
            AbsorbTarget(np.asfortranarray(work), np.zeros(4, np.int64))
        with pytest.raises(FieldError):
            AbsorbTarget(work, np.zeros(4, np.int32))
        with pytest.raises(FieldError):
            AbsorbTarget(work, np.zeros(3, np.int64))

    @pytest.mark.parametrize("backend", ["wide", "table"])
    def test_job_bounds_are_checked(self, backend):
        engine = Gf256Engine(backend)
        target = AbsorbTarget(np.zeros((4, 8), np.uint8), np.zeros(4, np.int64))
        incoming = np.ones((3, 4), dtype=np.uint8)
        with pytest.raises(FieldError):
            engine.absorb_many([(target, 0, 2, 4)], incoming)
        with pytest.raises(FieldError):
            engine.absorb_many([(target, 5, 0, 3)], incoming)
        with pytest.raises(FieldError):
            engine.absorb_many([(target, 0, 0, 2)], incoming[:, :3])
        with pytest.raises(FieldError):
            engine.absorb_many([(target, 0, 0, 2)], incoming.astype(np.int16))


def test_the_kernel_exports_one_absorb_entry_point():
    source = (Path(regionops.__file__).with_name("_regionops.c")).read_text()
    exported = re.findall(
        r"^(?!static)\w[\w\s\*]*?\b(gf256_\w*absorb\w*)\(", source, re.M
    )
    assert exported == ["gf256_absorb_many"]


def test_decoder_target_survives_quarantine():
    """The decoder checks its arrays once: quarantine clears them in place."""
    params = CodingParams(6, 16)
    rng = np.random.default_rng(4)
    decoder = ProgressiveDecoder(params)
    target = decoder._target
    decoder.consume_batch(
        rng.integers(0, 256, size=(4, 6), dtype=np.uint8),
        rng.integers(0, 256, size=(4, 16), dtype=np.uint8),
    )
    decoder.quarantine_rows([1])
    assert decoder._target is target
    assert target.work is decoder._work
    assert target.pivot_cols is decoder._pivot_cols
    assert decoder.rank == 3
