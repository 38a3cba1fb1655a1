"""Systematic-boundary accounting and in-place segment mutation.

The systematic emission cursor must behave identically whether callers
drain the encoder one block at a time, in batches, or in any interleaving
that straddles the identity/random boundary: the first n emissions are
exactly ``e_0 .. e_{n-1}`` (each exactly once, in order), everything after
is a dense random combination.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf256 import matmul
from repro.rlnc import (
    CodedBlock,
    CodingParams,
    Encoder,
    ProgressiveDecoder,
    Segment,
)

op_schedule = st.lists(
    st.one_of(
        st.just(0),  # encode_block
        st.integers(min_value=1, max_value=7),  # encode_batch(count)
    ),
    min_size=1,
    max_size=12,
)


def make_segment(n, k, seed):
    return Segment.random(CodingParams(n, k), np.random.default_rng(seed))


def drain(encoder, schedule):
    """Run the schedule, returning emissions as (coefficients, payload)."""
    emitted = []
    for op in schedule:
        if op == 0:
            block = encoder.encode_block()
            emitted.append((block.coefficients, block.payload))
        else:
            coefficients, payloads = encoder.encode_batch(op)
            emitted.extend(
                (coefficients[i], payloads[i]) for i in range(op)
            )
    return emitted


class TestSystematicBoundary:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),  # n
        op_schedule,
        st.integers(min_value=0, max_value=2**31),
    )
    def test_any_interleaving_emits_each_source_row_exactly_once(
        self, n, schedule, seed
    ):
        segment = make_segment(n, 5, seed)
        encoder = Encoder(
            segment, np.random.default_rng(seed + 1), systematic=True
        )
        emitted = drain(encoder, schedule)
        assert encoder.blocks_emitted == len(emitted)
        for index, (coefficients, payload) in enumerate(emitted):
            if index < n:
                expected = np.zeros(n, dtype=np.uint8)
                expected[index] = 1
                assert np.array_equal(coefficients, expected), index
                assert np.array_equal(payload, segment.blocks[index])
            else:
                # Dense draws never produce identity-like rows (every
                # coefficient is nonzero at density 1.0).
                assert (coefficients != 0).all()

    @settings(max_examples=15, deadline=None)
    @given(op_schedule, st.integers(min_value=0, max_value=2**31))
    def test_interleaved_emissions_decode_to_the_source(self, schedule, seed):
        n = 4
        segment = make_segment(n, 6, seed)
        encoder = Encoder(
            segment, np.random.default_rng(seed + 1), systematic=True
        )
        emitted = drain(encoder, schedule)
        decoder = ProgressiveDecoder(segment.params)
        for coefficients, payload in emitted:
            if decoder.is_complete:
                break
            decoder.consume(
                CodedBlock(
                    coefficients=np.ascontiguousarray(coefficients),
                    payload=np.ascontiguousarray(payload),
                )
            )
        while not decoder.is_complete:
            decoder.consume(encoder.encode_block())
        assert np.array_equal(decoder.recover_segment().blocks, segment.blocks)


class TestSegmentMutation:
    def test_encoder_output_tracks_in_place_mutation(self):
        # The encoder multiplies the live block matrix: there is no
        # derived copy of the segment to go stale after a write.
        segment = make_segment(4, 8, 74)
        encoder = Encoder(segment, np.random.default_rng(75))
        encoder.encode_block()
        segment.blocks[:] ^= 0x5A
        block = encoder.encode_block()
        expected = matmul(block.coefficients[None, :], segment.blocks)[0]
        assert np.array_equal(block.payload, expected)
