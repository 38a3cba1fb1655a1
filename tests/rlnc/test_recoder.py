"""Tests for intermediate-node recoding."""

import numpy as np
import pytest

from repro.errors import DecodingError
from repro.gf256 import rank
from repro.rlnc import (
    CodedBlock,
    CodingParams,
    Encoder,
    ProgressiveDecoder,
    Recoder,
    Segment,
)


def make_segment(n, k, seed):
    return Segment.random(CodingParams(n, k), np.random.default_rng(seed))


class TestRecoder:
    def test_empty_recoder_raises(self):
        recoder = Recoder(CodingParams(4, 4))
        with pytest.raises(DecodingError):
            recoder.recode(np.random.default_rng(0))

    def test_geometry_mismatch_raises(self):
        recoder = Recoder(CodingParams(4, 4))
        with pytest.raises(DecodingError):
            recoder.add(
                CodedBlock(
                    coefficients=np.ones(3, dtype=np.uint8),
                    payload=np.ones(4, dtype=np.uint8),
                )
            )

    def test_recoded_block_is_consistent_combination(self):
        """The recoded payload must equal the recoded coefficients applied
        to the original source blocks — the invariant that lets recoded
        blocks decode exactly like source-coded ones."""
        segment = make_segment(6, 10, 0)
        encoder = Encoder(segment, np.random.default_rng(1))
        recoder = Recoder(segment.params)
        for block in encoder.encode_blocks(4):
            recoder.add(block)
        recoded = recoder.recode(np.random.default_rng(2))
        from repro.gf256 import matmul

        expected = matmul(recoded.coefficients[None, :], segment.blocks)[0]
        assert np.array_equal(recoded.payload, expected)

    def test_decoding_via_relay_chain(self):
        """Source -> relay -> relay -> sink, decoding only recoded blocks."""
        segment = make_segment(5, 8, 3)
        rng = np.random.default_rng(4)
        encoder = Encoder(segment, rng)

        relay_one = Recoder(segment.params)
        for block in encoder.encode_blocks(5):
            relay_one.add(block)

        relay_two = Recoder(segment.params)
        for block in relay_one.recode_batch(5, rng):
            relay_two.add(block)

        decoder = ProgressiveDecoder(segment.params)
        attempts = 0
        while not decoder.is_complete:
            decoder.consume(relay_two.recode(rng))
            attempts += 1
            assert attempts < 100, "relay chain failed to deliver full rank"
        assert np.array_equal(decoder.recover_segment().blocks, segment.blocks)

    def test_recode_from_partial_rank_still_useful(self):
        """A relay holding fewer than n blocks emits blocks that are
        innovative up to the rank it holds."""
        segment = make_segment(6, 4, 5)
        rng = np.random.default_rng(6)
        encoder = Encoder(segment, rng)
        relay = Recoder(segment.params)
        for block in encoder.encode_blocks(3):
            relay.add(block)

        decoder = ProgressiveDecoder(segment.params)
        innovative = sum(decoder.consume(relay.recode(rng)) for _ in range(20))
        # Rank can never exceed what the relay holds.
        assert decoder.rank <= 3
        assert innovative == decoder.rank


class TestRowStore:
    """The recoder's rows are its progressive decoder's accepted rows."""

    def test_dependent_row_is_dropped_and_counted(self):
        segment = make_segment(4, 8, seed=7)
        block = Encoder(segment, np.random.default_rng(8)).encode_block()
        recoder = Recoder(segment.params)
        assert recoder.add(block) == 1
        assert recoder.add(block) == 0
        assert recoder.buffered == recoder.decoder.rank == 1
        assert recoder.discarded == 1

    def test_rows_after_full_rank_are_discarded_not_raised(self):
        segment = make_segment(4, 8, seed=9)
        coefficients, payloads = Encoder(
            segment, np.random.default_rng(10)
        ).encode_batch(6)
        recoder = Recoder(segment.params)
        assert recoder.add_batch(coefficients[:4], payloads[:4]) == 4
        assert recoder.decoder.is_complete
        assert recoder.add_batch(coefficients[4:], payloads[4:]) == 0
        late = Encoder(segment, np.random.default_rng(11)).encode_block()
        assert recoder.add(late) == 0
        assert recoder.buffered == 4
        assert recoder.discarded == 3
        assert np.array_equal(recoder.decoder.recover_segment().blocks, segment.blocks)

    def test_accepted_rows_are_read_only_arrival_order_views(self):
        segment = make_segment(5, 8, seed=12)
        coefficients, payloads = Encoder(
            segment, np.random.default_rng(13)
        ).encode_batch(3)
        coefficients[1], payloads[1] = coefficients[0], payloads[0]
        recoder = Recoder(segment.params)
        recoder.add_batch(coefficients, payloads)
        held_coefficients, held_payloads = recoder.decoder.accepted_rows()
        assert np.array_equal(held_coefficients, coefficients[[0, 2]])
        assert np.array_equal(held_payloads, payloads[[0, 2]])
        for view in (held_coefficients, held_payloads):
            assert not view.flags.writeable


class TestBatchIntake:
    def test_add_batch_matches_per_block_adds(self):
        from repro.rlnc import BlockBatch

        segment = make_segment(8, 16, seed=1)
        rng = np.random.default_rng(2)
        coefficients, payloads = Encoder(segment, rng).encode_batch(6)

        one = Recoder(segment.params)
        for row in range(6):
            one.add(
                CodedBlock(
                    coefficients=coefficients[row], payload=payloads[row]
                )
            )
        other = Recoder(segment.params)
        other.add_batch(
            BlockBatch(coefficients=coefficients, payloads=payloads)
        )
        assert one.buffered == other.buffered == 6
        # Identical buffers => identical recoded output for the same rng.
        a = one.recode_matrix(4, np.random.default_rng(3))
        b = other.recode_matrix(4, np.random.default_rng(3))
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.payloads, b.payloads)

    def test_add_batch_geometry_checked(self):
        recoder = Recoder(CodingParams(4, 4))
        with pytest.raises(DecodingError):
            recoder.add_batch(
                np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8)
            )
        with pytest.raises(DecodingError):
            recoder.add_batch(np.zeros((2, 4), dtype=np.uint8))

    def test_holds_at_most_n_independent_rows(self):
        """80 rows offered at n=4: the recoder keeps only independent
        ones, drops and counts the rest, and still recodes consistent
        combinations."""
        segment = make_segment(4, 8, seed=5)
        rng = np.random.default_rng(6)
        coefficients, payloads = Encoder(segment, rng).encode_batch(40)
        recoder = Recoder(segment.params)
        assert recoder.add_batch(coefficients, payloads) == 4
        assert recoder.add_batch(coefficients, payloads) == 0
        assert recoder.buffered == 4
        assert recoder.discarded == 76
        held, _ = recoder.decoder.accepted_rows()
        assert rank(held) == 4
        from repro.gf256 import matmul

        recoded = recoder.recode_matrix(3, np.random.default_rng(7))
        assert np.array_equal(
            recoded.payloads, matmul(recoded.coefficients, segment.blocks)
        )
