"""Tests for segments, coded blocks and coding parameters."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rlnc import CodedBlock, CodingParams, Segment


class TestCodingParams:
    def test_derived_quantities(self):
        params = CodingParams(num_blocks=128, block_size=4096)
        assert params.segment_bytes == 128 * 4096
        assert params.coded_block_bytes == 4096 + 128
        assert params.overhead_ratio == 128 / 4096

    @pytest.mark.parametrize("n,k", [(0, 4), (4, 0), (-1, 4), (4, -1)])
    def test_rejects_non_positive_geometry(self, n, k):
        with pytest.raises(ConfigurationError):
            CodingParams(num_blocks=n, block_size=k)


class TestSegment:
    def test_from_bytes_round_trip(self):
        params = CodingParams(num_blocks=4, block_size=8)
        data = bytes(range(30))
        segment = Segment.from_bytes(data, params)
        assert segment.blocks.shape == (4, 8)
        assert segment.to_bytes() == data

    def test_from_bytes_pads_with_zeros(self):
        params = CodingParams(num_blocks=2, block_size=4)
        segment = Segment.from_bytes(b"\x01\x02", params)
        flat = segment.blocks.reshape(-1)
        assert flat[0] == 1 and flat[1] == 2
        assert not flat[2:].any()

    def test_full_segment_bytes_are_viewed_not_copied(self):
        params = CodingParams(num_blocks=2, block_size=4)
        data = bytes(range(8))
        segment = Segment.from_bytes(data, params)
        view = np.frombuffer(data, dtype=np.uint8)
        assert np.shares_memory(segment.blocks, view)
        assert not segment.blocks.flags.writeable
        assert segment.to_bytes() == data

    def test_other_inputs_are_copied(self):
        params = CodingParams(num_blocks=2, block_size=4)
        source = bytearray(range(8))
        segment = Segment.from_bytes(source, params)
        source[0] = 99
        assert segment.blocks[0, 0] == 0
        assert segment.blocks.flags.writeable

    def test_from_bytes_rejects_oversized(self):
        params = CodingParams(num_blocks=2, block_size=4)
        with pytest.raises(ConfigurationError):
            Segment.from_bytes(bytes(9), params)

    def test_empty_data_still_forms_a_segment(self):
        params = CodingParams(num_blocks=2, block_size=4)
        segment = Segment.from_bytes(b"", params)
        assert segment.to_bytes() == b""
        assert segment.blocks.shape == (2, 4)

    def test_random_segment_geometry(self):
        params = CodingParams(num_blocks=8, block_size=16)
        segment = Segment.random(params, np.random.default_rng(0), segment_id=3)
        assert segment.params == params
        assert segment.segment_id == 3
        assert segment.original_length == params.segment_bytes

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ConfigurationError):
            Segment(blocks=np.zeros((2, 2), dtype=np.int32))


class TestCodedBlock:
    def test_wire_size(self):
        block = CodedBlock(
            coefficients=np.zeros(128, dtype=np.uint8),
            payload=np.zeros(4096, dtype=np.uint8),
        )
        assert block.wire_size() == 4224
        assert block.num_blocks == 128
        assert block.block_size == 4096

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ConfigurationError):
            CodedBlock(
                coefficients=np.zeros(4, dtype=np.int64),
                payload=np.zeros(8, dtype=np.uint8),
            )

    def test_rejects_2d_arrays(self):
        with pytest.raises(ConfigurationError):
            CodedBlock(
                coefficients=np.zeros((2, 2), dtype=np.uint8),
                payload=np.zeros(8, dtype=np.uint8),
            )
