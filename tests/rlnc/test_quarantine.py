"""Tests for poisoned-block detection, quarantine and rollback.

RLNC has no intrinsic integrity check: one corrupt accepted block
re-weights every source block it touches and silently poisons the whole
decode.  The quarantine layer keeps each accepted row's raw coefficients
so the elimination invariant can be re-verified, offending rows rolled
back, and the lost rank re-fetched — with per-source attribution so a
misbehaving upstream can be cut off.
"""

import numpy as np
import pytest

from repro.errors import DecodingError
from repro.rlnc import CodedBlock, CodingParams, Encoder, ProgressiveDecoder, Segment

PARAMS = CodingParams(8, 32)


def make_decoder(seed=1, segment_id=0):
    rng = np.random.default_rng(seed)
    segment = Segment.random(PARAMS, rng, segment_id=segment_id)
    return segment, Encoder(segment, rng), ProgressiveDecoder(
        PARAMS, segment_id
    )


def corrupt_copy(block, position=0, bit=0x20):
    payload = block.payload.copy()
    payload[position] ^= bit
    return type(block)(
        coefficients=block.coefficients.copy(),
        payload=payload,
        segment_id=block.segment_id,
    )


class TestSourceTracking:
    def test_sources_recorded_per_row(self):
        _, encoder, decoder = make_decoder()
        decoder.consume(encoder.encode_block(), source="alice")
        decoder.consume(encoder.encode_block(), source="bob")
        assert decoder.rank == 2
        assert decoder.corruption_counts == {}

    def test_record_corrupt_accumulates(self):
        _, _, decoder = make_decoder()
        decoder.record_corrupt("mallory")
        decoder.record_corrupt("mallory", count=2)
        assert decoder.corruption_counts == {"mallory": 3}

    def test_record_corrupt_rejects_negative(self):
        _, _, decoder = make_decoder()
        with pytest.raises(DecodingError):
            decoder.record_corrupt("x", count=-1)


class TestVerifyConsistency:
    def test_clean_decoder_verifies(self):
        _, encoder, decoder = make_decoder()
        for _ in range(5):
            decoder.consume(encoder.encode_block())
        assert decoder.verify_consistency() == []

    def test_mutated_state_is_detected(self):
        """Simulated post-acceptance memory corruption: flipping a byte
        of the internal RREF breaks the C_rref == M @ C_raw invariant."""
        _, encoder, decoder = make_decoder()
        for _ in range(5):
            decoder.consume(encoder.encode_block())
        decoder._work[2, 3] ^= 0x11
        suspects = decoder.verify_consistency()
        assert 2 in suspects

    def test_verify_on_empty_decoder(self):
        _, _, decoder = make_decoder()
        assert decoder.verify_consistency() == []


class TestQuarantineRollback:
    def test_quarantine_source_restores_byte_exact_decode(self):
        """The end-to-end poisoning story: an evil source's corrupt (but
        internally consistent) blocks are rolled back wholesale and the
        refetched rank decodes byte-exactly."""
        segment, encoder, decoder = make_decoder(seed=3)
        for _ in range(3):
            decoder.consume(encoder.encode_block(), source="good")
        for _ in range(2):
            decoder.consume(
                corrupt_copy(encoder.encode_block()), source="evil"
            )
        while not decoder.is_complete:
            decoder.consume(encoder.encode_block(), source="good")
        # pre-acceptance corruption is self-consistent: verify passes,
        # but the decode would be garbage without quarantine
        assert decoder.verify_consistency() == []

        removed = decoder.quarantine_source("evil")
        assert removed == 2
        assert decoder.quarantined == 2
        assert decoder.rank_regressions == 1
        assert decoder.rank < PARAMS.num_blocks
        assert decoder.corruption_counts == {"evil": 2}

        while not decoder.is_complete:
            decoder.consume(encoder.encode_block(), source="good")
        assert np.array_equal(
            decoder.recover_segment().blocks, segment.blocks
        )

    def test_quarantine_rows_repairs_mutated_state(self):
        segment, encoder, decoder = make_decoder(seed=4)
        while not decoder.is_complete:
            decoder.consume(encoder.encode_block(), source="peer")
        decoder._work[1, 5] ^= 0x07
        suspects = decoder.verify_consistency()
        assert suspects
        decoder.quarantine_rows(suspects)
        assert decoder.verify_consistency() == []
        while not decoder.is_complete:
            decoder.consume(encoder.encode_block(), source="peer")
        assert np.array_equal(
            decoder.recover_segment().blocks, segment.blocks
        )

    def test_quarantine_out_of_range_rejected(self):
        _, encoder, decoder = make_decoder()
        decoder.consume(encoder.encode_block())
        with pytest.raises(DecodingError, match="outside"):
            decoder.quarantine_rows([5])
        with pytest.raises(DecodingError, match="outside"):
            decoder.quarantine_rows([-1])

    def test_quarantine_empty_is_noop(self):
        _, encoder, decoder = make_decoder()
        decoder.consume(encoder.encode_block())
        assert decoder.quarantine_rows([]) == 1
        assert decoder.quarantined == 0

    def test_quarantine_unknown_source_is_noop(self):
        _, encoder, decoder = make_decoder()
        decoder.consume(encoder.encode_block(), source="a")
        assert decoder.quarantine_source("nobody") == 0
        assert decoder.rank == 1

    def test_rank_counts_survive_rebuild(self):
        """Rebuild keeps received/discarded accounting monotonic."""
        _, encoder, decoder = make_decoder(seed=6)
        blocks = [encoder.encode_block() for _ in range(10)]
        for block in blocks:
            if decoder.is_complete:
                break
            decoder.consume(block, source="p")
        received_before = decoder.received
        decoder.quarantine_rows([0])
        assert decoder.received == received_before
        assert decoder.rank == PARAMS.num_blocks - 1

    def test_batch_intake_records_sources(self):
        """consume_batch rows are attributable too."""
        segment, encoder, decoder = make_decoder(seed=7)
        coefficients = np.stack(
            [encoder.encode_block().coefficients for _ in range(4)]
        )
        # rebuild payloads for those coefficients via a fresh encoder pass
        from repro.gf256 import matmul

        payloads = matmul(coefficients, segment.blocks)
        decoder.consume_batch(coefficients, payloads, source="batch-peer")
        assert decoder.rank == 4
        removed = decoder.quarantine_source("batch-peer")
        assert removed == 4
        assert decoder.rank == 0
        assert decoder.corruption_counts == {"batch-peer": 4}

    def test_dense_state_not_stale_after_quarantine(self):
        """Regression: the lazy payload materialization cache must be
        invalidated by a quarantine rebuild."""
        segment, encoder, decoder = make_decoder(seed=8)
        while not decoder.is_complete:
            decoder.consume(encoder.encode_block(), source="p")
        decoder.dense_state()  # materialize at full rank
        decoder.quarantine_rows([0])
        rows, _ = decoder.dense_state()
        held = decoder.rank
        from repro.gf256 import matmul

        n = PARAMS.num_blocks
        assert np.array_equal(
            rows[:held, n:], matmul(rows[:held, :n], segment.blocks)
        )

    def test_rebuild_matches_fresh_decoder_fed_kept_rows(self):
        """The one-call rebuild leaves exactly the state of a decoder
        that only ever saw the kept rows, with each row's own source."""
        _, encoder, decoder = make_decoder(seed=9)
        blocks = [encoder.encode_block() for _ in range(PARAMS.num_blocks)]
        blocks.insert(3, blocks[1])  # a dependent row, discarded once
        sources = [f"peer-{index % 3}" for index in range(len(blocks))]
        for block, source in zip(blocks, sources):
            decoder.consume(block, source=source)
        assert decoder.is_complete
        assert decoder.discarded == 1
        kept = [row for row in range(decoder.rank) if row not in (1, 5)]
        coefficients = decoder._raw_coefficients[kept]
        payloads = decoder._raw_payloads[kept]
        kept_sources = [decoder._sources[row] for row in kept]
        decoder.quarantine_rows([5, 1])

        fresh = ProgressiveDecoder(PARAMS)
        for row, source in enumerate(kept_sources):
            block = CodedBlock(coefficients=coefficients[row], payload=payloads[row])
            fresh.consume(block, source=source)
        rank = fresh.rank
        assert decoder.rank == rank == PARAMS.num_blocks - 2
        assert np.array_equal(decoder._work, fresh._work)
        pivots = decoder._pivot_cols[:rank]
        assert np.array_equal(pivots, fresh._pivot_cols[:rank])
        assert decoder._pivot_to_row == fresh._pivot_to_row
        assert np.array_equal(decoder._raw_coefficients, fresh._raw_coefficients)
        assert np.array_equal(decoder._raw_payloads, fresh._raw_payloads)
        assert decoder._sources == fresh._sources
        assert decoder.discarded == 1  # the rebuild counts none


def loop_recover(decoder):
    """``recover_segment``'s blocks as the per-pivot copy loop built them."""
    n = PARAMS.num_blocks
    rows, pivots = decoder.dense_state()
    blocks = np.empty((n, PARAMS.block_size), dtype=np.uint8)
    for pivot_col, row_index in pivots.items():
        blocks[pivot_col] = rows[row_index][n:]
    return blocks


def fill(decoder, encoder, *, source=None):
    while not decoder.is_complete:
        decoder.consume(encoder.encode_block(), source=source)


class TestRecoverSegment:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_index_copy_matches_the_pivot_loop(self, seed):
        segment, encoder, decoder = make_decoder(seed)
        fill(decoder, encoder)
        recovered = decoder.recover_segment().blocks
        assert np.array_equal(recovered, loop_recover(decoder))
        assert np.array_equal(recovered, segment.blocks)

    def test_matches_after_a_quarantine(self):
        segment, encoder, decoder = make_decoder(7)
        fill(decoder, encoder, source="a")
        decoder.quarantine_rows([0, 3, 5])
        fill(decoder, encoder, source="b")
        recovered = decoder.recover_segment().blocks
        assert np.array_equal(recovered, loop_recover(decoder))
        assert np.array_equal(recovered, segment.blocks)

    def test_matches_after_a_restart(self):
        _, encoder, decoder = make_decoder(8)
        fill(decoder, encoder)
        decoder.recover_segment()
        other = Segment.random(PARAMS, np.random.default_rng(9), segment_id=4)
        decoder._restart(4)
        fill(decoder, Encoder(other, np.random.default_rng(10)))
        recovered = decoder.recover_segment()
        assert recovered.segment_id == 4
        assert np.array_equal(recovered.blocks, loop_recover(decoder))
        assert np.array_equal(recovered.blocks, other.blocks)
