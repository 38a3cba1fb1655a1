"""Golden-state tests: the vectorized decoder vs the pinned seed decoder.

``tests/rlnc/_reference.py``'s ``ReferenceProgressiveDecoder`` preserves the
seed implementation byte for byte.  These tests replay *identical* block
streams — innovative, linearly dependent, duplicate and zero-coefficient
blocks alike — through both decoders and compare the complete internal
state (RREF aggregate matrix, pivot map, counters) after every single
consume.  That is the byte-exactness contract that makes the lazy
payload-materialization rewrite an invisible optimization.
"""

import numpy as np
import pytest

from repro.errors import SingularMatrixError
from repro.gf256 import mul_scalar_table
from repro.rlnc import (
    CodedBlock,
    CodingParams,
    Encoder,
    ProgressiveDecoder,
    Segment,
    TwoStageDecoder,
)
from tests.rlnc._reference import ReferenceProgressiveDecoder


def make_segment(n, k, seed):
    return Segment.random(CodingParams(n, k), np.random.default_rng(seed))


def adversarial_stream(segment, seed, extra=6):
    """Coded blocks with dependent, duplicate and scaled rows mixed in."""
    n = segment.blocks.shape[0]
    encoder = Encoder(segment, np.random.default_rng(seed))
    blocks = encoder.encode_blocks(n + extra)
    stream = []
    for i, block in enumerate(blocks):
        stream.append(block)
        if i == 1:
            # Exact duplicate: must reduce to zero and be discarded.
            stream.append(block)
        if i == 2:
            # A scaled copy of an earlier block: dependent but not equal.
            stream.append(
                CodedBlock(
                    coefficients=mul_scalar_table(blocks[0].coefficients, 7),
                    payload=mul_scalar_table(blocks[0].payload, 7),
                    segment_id=block.segment_id,
                )
            )
        if i == 3 and n >= 2:
            # XOR of two earlier rows: dependent on the span, not one row.
            stream.append(
                CodedBlock(
                    coefficients=blocks[1].coefficients ^ blocks[2].coefficients,
                    payload=blocks[1].payload ^ blocks[2].payload,
                    segment_id=block.segment_id,
                )
            )
    return stream


def assert_same_state(new, ref):
    new_rows, new_pivots = new.dense_state()
    ref_rows, ref_pivots = ref.dense_state()
    assert new_pivots == ref_pivots
    assert np.array_equal(new_rows, ref_rows)
    assert new.rank == ref.rank
    assert new.received == ref.received
    assert new.discarded == ref.discarded


class TestProgressiveGolden:
    @pytest.mark.parametrize("geometry", [(1, 1), (2, 3), (5, 7), (8, 16), (16, 64)])
    def test_state_identical_after_every_consume(self, geometry):
        n, k = geometry
        segment = make_segment(n, k, seed=100 + n)
        new = ProgressiveDecoder(segment.params)
        ref = ReferenceProgressiveDecoder(segment.params)
        for block in adversarial_stream(segment, seed=200 + n):
            if new.is_complete:
                break
            assert new.consume(block) == ref.consume(block)
            assert_same_state(new, ref)
        assert new.is_complete
        assert np.array_equal(
            new.recover_segment().blocks, ref.recover_segment().blocks
        )
        assert np.array_equal(new.recover_segment().blocks, segment.blocks)

    def test_systematic_stream_with_zero_coefficients(self):
        # Identity coefficient rows exercise the sparse/zero paths of the
        # batched reduction (factors of exactly zero must contribute
        # nothing, masklessly).
        segment = make_segment(6, 10, seed=31)
        encoder = Encoder(segment, np.random.default_rng(32), systematic=True)
        new = ProgressiveDecoder(segment.params)
        ref = ReferenceProgressiveDecoder(segment.params)
        while not new.is_complete:
            block = encoder.encode_block()
            assert new.consume(block) == ref.consume(block)
            assert_same_state(new, ref)
        assert np.array_equal(new.recover_segment().blocks, segment.blocks)

    def test_interleaved_state_reads_do_not_corrupt(self):
        # dense_state() materializes lazily; calling it mid-stream (and
        # repeatedly) must not perturb subsequent consumes.
        segment = make_segment(5, 9, seed=41)
        encoder = Encoder(segment, np.random.default_rng(42))
        new = ProgressiveDecoder(segment.params)
        ref = ReferenceProgressiveDecoder(segment.params)
        while not new.is_complete:
            block = encoder.encode_block()
            new.dense_state()
            new.dense_state()
            new.consume(block)
            ref.consume(block)
            assert_same_state(new, ref)
        assert np.array_equal(
            new.recover_segment().blocks, ref.recover_segment().blocks
        )


class TestTwoStageRetry:
    def _dependent_prefix_setup(self):
        """Buffer whose first n rows are deliberately rank-deficient."""
        segment = make_segment(4, 8, seed=51)
        encoder = Encoder(segment, np.random.default_rng(52))
        blocks = encoder.encode_blocks(4)
        decoder = TwoStageDecoder(segment.params)
        for block in blocks[:3]:
            decoder.add(block)
        # Fourth buffered block is a scaled copy of the first: the first
        # n rows span rank 3 only.
        decoder.add(
            CodedBlock(
                coefficients=mul_scalar_table(blocks[0].coefficients, 9),
                payload=mul_scalar_table(blocks[0].payload, 9),
            )
        )
        return segment, encoder, decoder

    def test_retry_after_singular_draw_succeeds(self):
        # The seed implementation always inverted the *first n* buffered
        # rows, so "add one more block and retry" could never escape a
        # dependent prefix.  Selection over the whole buffer fixes that.
        segment, encoder, decoder = self._dependent_prefix_setup()
        with pytest.raises(SingularMatrixError):
            decoder.decode()
        decoder.add(encoder.encode_block())  # the documented recovery path
        assert np.array_equal(decoder.decode().blocks, segment.blocks)

    def test_failed_decode_leaves_buffer_usable(self):
        segment, encoder, decoder = self._dependent_prefix_setup()
        with pytest.raises(SingularMatrixError):
            decoder.decode()
        assert decoder.buffered == 4
        with pytest.raises(SingularMatrixError):
            decoder.decode()  # still deterministic on the same buffer
        decoder.add(encoder.encode_block())
        assert np.array_equal(decoder.decode().blocks, segment.blocks)

    def test_rank_deficient_error_reports_span(self):
        segment, _, decoder = self._dependent_prefix_setup()
        with pytest.raises(SingularMatrixError, match="rank 3 < 4"):
            decoder.decode()

    def test_dependent_rows_scattered_through_buffer(self):
        # Independent rows 0, 2, 4, 5 with dependents at 1 and 3: the
        # selected subset is non-contiguous.
        segment = make_segment(4, 8, seed=61)
        encoder = Encoder(segment, np.random.default_rng(62))
        blocks = encoder.encode_blocks(4)
        decoder = TwoStageDecoder(segment.params)
        decoder.add(blocks[0])
        decoder.add(
            CodedBlock(
                coefficients=mul_scalar_table(blocks[0].coefficients, 3),
                payload=mul_scalar_table(blocks[0].payload, 3),
            )
        )
        decoder.add(blocks[1])
        decoder.add(
            CodedBlock(
                coefficients=blocks[0].coefficients ^ blocks[1].coefficients,
                payload=blocks[0].payload ^ blocks[1].payload,
            )
        )
        decoder.add(blocks[2])
        decoder.add(blocks[3])
        assert np.array_equal(decoder.decode().blocks, segment.blocks)
