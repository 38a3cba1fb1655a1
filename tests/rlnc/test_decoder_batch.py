"""Batched decoder intake: consume_batch vs per-block consume.

The serving pipeline's receive side absorbs whole block matrices with
one elimination call; the contract is that the resulting decoder state
is byte-identical to consuming the same rows one at a time (RREF with
arrival-order row placement is unique), on the compiled kernel and on
the table oracle alike, and to the pinned seed-era decoder.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rlnc.decoder as decoder_module
from repro.errors import DecodingError, FieldError
from repro.gf256 import regionops
from repro.gf256.engine import AbsorbTarget, Gf256Engine
from repro.rlnc import (
    BlockBatch,
    CodedBlock,
    CodingParams,
    Encoder,
    ProgressiveDecoder,
    Recoder,
    Segment,
    TwoStageDecoder,
    pack_blocks,
    unpack_blocks,
)
from tests.rlnc._reference import ReferenceProgressiveDecoder


def coded_stream(n, k, count, seed, *, dependent_every=0):
    """A (count, n)/(count, k) stream, optionally with dependent rows."""
    rng = np.random.default_rng(seed)
    segment = Segment.random(CodingParams(n, k), rng)
    coefficients, payloads = Encoder(segment, rng).encode_batch(count)
    if dependent_every:
        # Overwrite some rows with combinations of earlier rows, so the
        # batch path must discard exactly where the sequential path does.
        from repro.gf256 import matmul

        for row in range(dependent_every, count, dependent_every):
            mix = rng.integers(1, 256, size=(1, row), dtype=np.uint8)
            coefficients[row] = matmul(mix, coefficients[:row])[0]
            payloads[row] = matmul(mix, payloads[:row])[0]
    return segment, coefficients, payloads


def consume_sequentially(params, coefficients, payloads):
    decoder = ProgressiveDecoder(params)
    for row in range(coefficients.shape[0]):
        if decoder.is_complete:
            break
        decoder.consume(
            CodedBlock(coefficients=coefficients[row], payload=payloads[row])
        )
    return decoder


def assert_same_state(a: ProgressiveDecoder, b: ProgressiveDecoder) -> None:
    rows_a, pivots_a = a.dense_state()
    rows_b, pivots_b = b.dense_state()
    assert pivots_a == pivots_b
    assert np.array_equal(rows_a, rows_b)
    assert a.rank == b.rank
    assert a.discarded == b.discarded


class TestConsumeBatchEquivalence:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_state_matches_sequential(self, n, k, seed, dependent_every):
        params = CodingParams(n, k)
        count = n  # exactly enough rows that completion can happen mid-way
        _, coefficients, payloads = coded_stream(
            n, k, count, seed, dependent_every=dependent_every
        )
        sequential = consume_sequentially(params, coefficients, payloads)
        batched = ProgressiveDecoder(params)
        innovative = batched.consume_batch(coefficients, payloads)
        assert innovative == sequential.rank
        assert_same_state(sequential, batched)

    def test_split_batches_match_one_batch(self):
        params = CodingParams(12, 32)
        _, coefficients, payloads = coded_stream(12, 32, 12, seed=5)
        whole = ProgressiveDecoder(params)
        whole.consume_batch(coefficients, payloads)
        split = ProgressiveDecoder(params)
        split.consume_batch(coefficients[:5], payloads[:5])
        split.consume(
            CodedBlock(coefficients=coefficients[5], payload=payloads[5])
        )
        split.consume_batch(coefficients[6:], payloads[6:])
        assert_same_state(whole, split)

    def test_batch_recovers_segment(self):
        segment, coefficients, payloads = coded_stream(16, 64, 16, seed=9)
        decoder = ProgressiveDecoder(segment.params)
        decoder.consume_batch(coefficients, payloads)
        assert decoder.is_complete
        assert np.array_equal(decoder.recover_segment().blocks, segment.blocks)

    def test_surplus_rows_after_completion_are_discarded(self):
        segment, coefficients, payloads = coded_stream(8, 16, 12, seed=3)
        decoder = ProgressiveDecoder(segment.params)
        innovative = decoder.consume_batch(coefficients, payloads)
        assert innovative == 8
        assert decoder.is_complete
        assert decoder.received == 12
        assert decoder.discarded == 4

    def test_accepts_blockbatch_and_wire_views(self):
        """The zero-copy (read-only) views from unpack_blocks feed the
        batched intake directly."""
        segment, coefficients, payloads = coded_stream(8, 16, 8, seed=4)
        wire = bytes(
            pack_blocks(
                BlockBatch(
                    coefficients=coefficients, payloads=payloads, segment_id=0
                )
            )
        )
        decoder = ProgressiveDecoder(segment.params)
        decoder.consume_batch(unpack_blocks(wire))
        assert decoder.is_complete
        assert np.array_equal(decoder.recover_segment().blocks, segment.blocks)

    def test_recoded_batch_intake(self):
        """Relay path: recoded batches absorb exactly like source batches."""
        segment, coefficients, payloads = coded_stream(8, 16, 8, seed=6)
        relay = Recoder(segment.params)
        relay.add_batch(coefficients, payloads)
        recoded = relay.recode_matrix(10, np.random.default_rng(7))
        decoder = ProgressiveDecoder(segment.params)
        decoder.consume_batch(recoded)
        assert decoder.is_complete
        assert np.array_equal(decoder.recover_segment().blocks, segment.blocks)


@contextmanager
def decoder_engine(backend):
    """Run the progressive decoder on a private engine of ``backend``."""
    saved = decoder_module.ENGINE
    decoder_module.ENGINE = Gf256Engine(backend)
    try:
        yield
    finally:
        decoder_module.ENGINE = saved


@st.composite
def intake_streams(draw):
    """Coefficient rows with awkward structure, cut into batches.

    Row kinds: uniform random, all-zero, a duplicate of an earlier row,
    a random combination of earlier rows, and sparse rows (one or two
    nonzero coefficients, so the factors against held pivots are mostly
    zero).  There are up to four rows beyond n, so completion can land
    mid-batch.  Each batch is fed with ``consume`` (size 1) or
    ``consume_batch`` and tagged with its own source.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=24))
    count = n + draw(st.integers(min_value=0, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    kinds = draw(
        st.lists(
            st.sampled_from(["random", "zero", "duplicate", "mix", "sparse"]),
            min_size=count,
            max_size=count,
        )
    )
    coefficients = np.zeros((count, n), dtype=np.uint8)
    for row, kind in enumerate(kinds):
        if kind == "zero":
            continue
        if row and kind == "duplicate":
            coefficients[row] = coefficients[rng.integers(row)]
        elif row and kind == "mix":
            mix = rng.integers(0, 256, size=(1, row), dtype=np.uint8)
            coefficients[row] = Gf256Engine("table").matmul(mix, coefficients[:row])
        elif kind == "sparse":
            columns = rng.choice(n, size=min(n, 2), replace=False)
            coefficients[row, columns] = rng.integers(1, 256, size=columns.size)
        else:
            coefficients[row] = rng.integers(0, 256, size=n, dtype=np.uint8)
    segment = Segment.random(CodingParams(n, k), rng)
    payloads = Gf256Engine("table").matmul(coefficients, segment.blocks)
    cuts = draw(st.lists(st.integers(min_value=0, max_value=count), max_size=5))
    bounds = sorted({0, count, *cuts})
    batches = list(zip(bounds, bounds[1:]))
    singles = draw(st.booleans())
    return segment, coefficients, payloads, batches, singles


def feed(params, coefficients, payloads, batches, singles):
    """Feed the batches until completion; return the decoder."""
    decoder = ProgressiveDecoder(params)
    for number, (start, stop) in enumerate(batches):
        if decoder.is_complete:
            break
        if singles and stop - start == 1:
            row = coefficients[start]
            decoder.consume(
                CodedBlock(coefficients=row, payload=payloads[start]), source=number
            )
        else:
            decoder.consume_batch(
                coefficients[start:stop], payloads[start:stop], source=number
            )
    return decoder


def assert_identical(a: ProgressiveDecoder, b: ProgressiveDecoder) -> None:
    rank = a.rank
    assert b.rank == rank
    assert np.array_equal(a._work, b._work)
    assert np.array_equal(a._pivot_cols[:rank], b._pivot_cols[:rank])
    assert a._pivot_to_row == b._pivot_to_row
    assert np.array_equal(a._raw_coefficients, b._raw_coefficients)
    assert np.array_equal(a._raw_payloads, b._raw_payloads)
    assert a._sources == b._sources
    assert a.received == b.received
    assert a.discarded == b.discarded


class TestKernelAgainstOracles:
    """The compiled elimination against the table oracle and the seed
    decoder, for any batch split."""

    @given(intake_streams())
    @settings(max_examples=60, deadline=None)
    def test_wide_table_and_reference_agree(self, stream):
        segment, coefficients, payloads, batches, singles = stream
        params = segment.params
        with decoder_engine("wide"):
            wide = feed(params, coefficients, payloads, batches, singles)
        with decoder_engine("table"):
            table = feed(params, coefficients, payloads, batches, singles)
        assert_identical(wide, table)

        reference = ReferenceProgressiveDecoder(params)
        for row in range(wide.received):
            if reference.is_complete:
                break
            reference.consume(
                CodedBlock(coefficients=coefficients[row], payload=payloads[row])
            )
        surplus = wide.received - reference.received
        assert reference.discarded + surplus == wide.discarded
        ref_rows, ref_pivots = reference.dense_state()
        rows, pivots = wide.dense_state()
        assert pivots == ref_pivots
        assert np.array_equal(rows, ref_rows)
        if wide.is_complete:
            assert np.array_equal(wide.recover_segment().blocks, segment.blocks)


@pytest.mark.skipif(
    not regionops.kernel_available(), reason="compiled kernel not loaded"
)
class TestAbsorbWrapperValidation:
    """Bad layouts raise in the engine's wrapper instead of reaching C.

    :class:`AbsorbTarget` checks the work matrix and its pivots once, and
    :meth:`Gf256Engine.absorb_many`, the one writer of kernel job rows,
    checks every job against the batch.
    """

    def arrays(self, n=4, m=3):
        work = np.zeros((n, 2 * n), dtype=np.uint8)
        incoming = np.arange(m * n, dtype=np.uint8).reshape(m, n)
        pivot_cols = np.zeros(n, dtype=np.int64)
        return work, incoming, pivot_cols

    def test_valid_arrays_match_the_oracle(self):
        work, incoming, pivot_cols = self.arrays()
        expected_work, _, expected_pivots = self.arrays()
        expected = Gf256Engine("table").absorb(
            expected_work, 0, incoming, expected_pivots
        )
        accepted = Gf256Engine("wide").absorb(work, 0, incoming, pivot_cols)
        assert np.array_equal(accepted, expected)
        assert np.array_equal(work, expected_work)
        assert np.array_equal(pivot_cols, expected_pivots)

    def test_non_contiguous_work_raises(self):
        work, _, pivot_cols = self.arrays()
        wide = np.zeros((4, 16), dtype=np.uint8)
        with pytest.raises(FieldError):
            AbsorbTarget(wide[:, ::2], pivot_cols)
        with pytest.raises(FieldError):
            AbsorbTarget(np.asfortranarray(work), pivot_cols)

    def test_non_contiguous_incoming_is_copied(self):
        """Column-strided and reversed rows reach C as contiguous copies."""
        _, incoming, _ = self.arrays()
        spread = np.zeros((3, 8), dtype=np.uint8)
        spread[:, ::2] = incoming
        for view in (spread[:, ::2], incoming[::-1]):
            expected_work, _, expected_pivots = self.arrays()
            expected = Gf256Engine("table").absorb(
                expected_work, 0, np.ascontiguousarray(view), expected_pivots
            )
            work, _, pivot_cols = self.arrays()
            accepted = Gf256Engine("wide").absorb(work, 0, view, pivot_cols)
            assert np.array_equal(accepted, expected)
            assert np.array_equal(work, expected_work)
            assert np.array_equal(pivot_cols, expected_pivots)

    def test_pivot_cols_must_be_int64(self):
        work, incoming, pivot_cols = self.arrays()
        with pytest.raises(FieldError):
            AbsorbTarget(work, pivot_cols.astype(np.int32))
        with pytest.raises(FieldError):
            AbsorbTarget(work, pivot_cols[:2])
        with pytest.raises(FieldError):
            Gf256Engine("wide").absorb(work, 0, incoming, pivot_cols[::2])

    def test_held_out_of_range_raises(self):
        work, incoming, pivot_cols = self.arrays()
        target = AbsorbTarget(work, pivot_cols)
        for held in (-1, 5):
            with pytest.raises(FieldError):
                Gf256Engine("wide").absorb_many([(target, held, 0, 3)], incoming)


class TestEngineAbsorbValidation:
    @pytest.mark.parametrize("backend", ["wide", "table"])
    def test_bad_operands_raise_field_error(self, backend):
        engine = Gf256Engine(backend)
        work = np.zeros((4, 8), dtype=np.uint8)
        incoming = np.ones((2, 4), dtype=np.uint8)
        pivot_cols = np.zeros(4, dtype=np.int64)
        with pytest.raises(FieldError):
            engine.absorb(work[:, :6], 0, incoming, pivot_cols)
        with pytest.raises(FieldError):
            engine.absorb(work, 0, incoming[:, :3], pivot_cols)
        with pytest.raises(FieldError):
            engine.absorb(work, 0, incoming, pivot_cols.astype(np.int32))
        with pytest.raises(FieldError):
            engine.absorb(work, 0, incoming.astype(np.int16), pivot_cols)
        with pytest.raises(FieldError):
            engine.absorb(work, 5, incoming, pivot_cols)

    @pytest.mark.parametrize("backend", ["wide", "table"])
    def test_strided_incoming_is_accepted(self, backend):
        """Wire views have strided rows; reversed views are copied."""
        rng = np.random.default_rng(3)
        host = rng.integers(0, 256, size=(6, 10), dtype=np.uint8)
        expected = np.zeros((4, 8), dtype=np.uint8)
        Gf256Engine("table").absorb(
            expected, 0, np.ascontiguousarray(host[::-1, 2:6]), np.zeros(4, np.int64)
        )
        work = np.zeros((4, 8), dtype=np.uint8)
        Gf256Engine(backend).absorb(work, 0, host[::-1, 2:6], np.zeros(4, np.int64))
        assert np.array_equal(work, expected)


class TestConsumeBatchValidation:
    def test_geometry_mismatch(self):
        decoder = ProgressiveDecoder(CodingParams(8, 16))
        with pytest.raises(DecodingError):
            decoder.consume_batch(
                np.zeros((2, 7), dtype=np.uint8), np.zeros((2, 16), dtype=np.uint8)
            )
        with pytest.raises(DecodingError):
            decoder.consume_batch(
                np.zeros((2, 8), dtype=np.uint8), np.zeros((3, 16), dtype=np.uint8)
            )

    def test_missing_payloads(self):
        decoder = ProgressiveDecoder(CodingParams(8, 16))
        with pytest.raises(DecodingError):
            decoder.consume_batch(np.zeros((2, 8), dtype=np.uint8))

    def test_empty_batch_is_a_noop(self):
        decoder = ProgressiveDecoder(CodingParams(8, 16))
        assert (
            decoder.consume_batch(
                np.zeros((0, 8), dtype=np.uint8), np.zeros((0, 16), dtype=np.uint8)
            )
            == 0
        )
        assert decoder.received == 0

    def test_complete_decoder_rejects_batches(self):
        segment, coefficients, payloads = coded_stream(4, 8, 4, seed=8)
        decoder = ProgressiveDecoder(segment.params)
        decoder.consume_batch(coefficients, payloads)
        assert decoder.is_complete
        with pytest.raises(DecodingError):
            decoder.consume_batch(coefficients[:1], payloads[:1])


class TestTwoStageBatchIntake:
    def test_add_batch_accepts_blockbatch(self):
        segment, coefficients, payloads = coded_stream(8, 16, 8, seed=10)
        decoder = TwoStageDecoder(segment.params)
        decoder.add_batch(
            BlockBatch(coefficients=coefficients, payloads=payloads)
        )
        assert decoder.has_enough
        assert np.array_equal(decoder.decode().blocks, segment.blocks)

    def test_add_batch_checks_geometry(self):
        decoder = TwoStageDecoder(CodingParams(8, 16))
        with pytest.raises(DecodingError):
            decoder.add_batch(
                np.zeros((2, 9), dtype=np.uint8), np.zeros((2, 16), dtype=np.uint8)
            )
        with pytest.raises(DecodingError):
            decoder.add_batch(np.zeros((2, 8), dtype=np.uint8))
