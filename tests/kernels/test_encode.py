"""Functional tests for the GPU encoding kernels."""

import numpy as np
import pytest

from repro.gf256 import matmul
from repro.gpu import GEFORCE_8800GT, GTX280
from repro.kernels import EncodeScheme, GpuEncoder
from repro.rlnc import CodingParams, ProgressiveDecoder, CodedBlock, Segment


def make_segment(n, k, seed=0):
    return Segment.random(CodingParams(n, k), np.random.default_rng(seed))


class TestFunctionalAgreement:
    """All seven schemes must produce byte-identical coded blocks."""

    @pytest.mark.parametrize("scheme", list(EncodeScheme))
    def test_matches_reference_matmul(self, scheme):
        segment = make_segment(8, 64)
        rng = np.random.default_rng(1)
        encoder = GpuEncoder(GTX280, scheme)
        result = encoder.encode(segment, 12, rng)
        expected = matmul(result.coefficients, segment.blocks)
        assert np.array_equal(result.payloads, expected)

    def test_all_schemes_agree_on_fixed_coefficients(self):
        segment = make_segment(6, 32)
        rng = np.random.default_rng(2)
        coefficients = np.random.default_rng(3).integers(
            0, 256, size=(9, 6), dtype=np.uint8
        )
        outputs = []
        for scheme in EncodeScheme:
            encoder = GpuEncoder(GTX280, scheme)
            result = encoder.encode(
                segment, 9, rng, coefficients=coefficients.copy()
            )
            outputs.append(result.payloads)
        for payload in outputs[1:]:
            assert np.array_equal(payload, outputs[0])

    def test_coded_blocks_decode(self):
        segment = make_segment(8, 16)
        rng = np.random.default_rng(4)
        encoder = GpuEncoder(GTX280, EncodeScheme.TABLE_5)
        result = encoder.encode(segment, 10, rng)
        decoder = ProgressiveDecoder(segment.params)
        for i in range(10):
            if decoder.is_complete:
                break
            decoder.consume(
                CodedBlock(
                    coefficients=result.coefficients[i],
                    payload=result.payloads[i],
                )
            )
        assert decoder.is_complete
        assert np.array_equal(decoder.recover_segment().blocks, segment.blocks)

    def test_zero_coefficients_handled(self):
        """Sparse rows exercise the 0xFF sentinel path of Fig. 5."""
        segment = make_segment(4, 8)
        coefficients = np.array(
            [[0, 0, 0, 0], [1, 0, 0, 0], [0, 7, 0, 9]], dtype=np.uint8
        )
        for scheme in (EncodeScheme.LOOP_BASED, EncodeScheme.TABLE_1,
                       EncodeScheme.TABLE_5):
            encoder = GpuEncoder(GTX280, scheme)
            result = encoder.encode(
                segment, 3, np.random.default_rng(0), coefficients=coefficients
            )
            assert not result.payloads[0].any()
            assert np.array_equal(result.payloads[1], segment.blocks[0])


class TestUploadAmortization:
    def test_uploaded_segment_skips_preprocessing(self):
        segment = make_segment(8, 64)
        rng = np.random.default_rng(5)
        cold = GpuEncoder(GTX280, EncodeScheme.TABLE_5)
        cold_result = cold.encode(segment, 8, rng)

        warm = GpuEncoder(GTX280, EncodeScheme.TABLE_5)
        warm.upload_segment(segment)
        warm_result = warm.encode(segment, 8, np.random.default_rng(5))

        assert warm_result.time_seconds < cold_result.time_seconds
        assert np.array_equal(warm_result.payloads, cold_result.payloads)

    def test_loop_based_never_preprocesses(self):
        segment = make_segment(8, 64)
        encoder = GpuEncoder(GTX280, EncodeScheme.LOOP_BASED)
        result = encoder.encode(segment, 8, np.random.default_rng(6))
        assert result.stats.launches == 1


class TestResultMetrics:
    def test_bandwidth_definition(self):
        segment = make_segment(8, 64)
        encoder = GpuEncoder(GTX280, EncodeScheme.TABLE_3)
        result = encoder.encode(segment, 16, np.random.default_rng(7))
        assert result.coded_bytes == 16 * 64
        assert result.bandwidth == pytest.approx(
            result.coded_bytes / result.time_seconds
        )

    def test_estimate_matches_encode_stats_shape(self):
        encoder = GpuEncoder(GTX280, EncodeScheme.TABLE_5)
        stats = encoder.estimate(num_blocks=128, block_size=4096, coded_rows=1024)
        assert stats.time_seconds(GTX280) > 0

    def test_gtx280_faster_than_8800gt(self):
        for scheme in (EncodeScheme.LOOP_BASED, EncodeScheme.TABLE_5):
            fast = GpuEncoder(GTX280, scheme).estimate(
                num_blocks=128, block_size=4096, coded_rows=1024
            )
            slow = GpuEncoder(GEFORCE_8800GT, scheme).estimate(
                num_blocks=128, block_size=4096, coded_rows=1024
            )
            assert fast.time_seconds(GTX280) < slow.time_seconds(GEFORCE_8800GT)


class TestDropSegmentReleasesCache:
    def test_drop_segment_releases_log_cache(self):
        """Regression: drop_segment must leave no reference to the
        segment or its block matrix inside the encoder."""
        import gc
        import weakref

        segment = make_segment(8, 32)
        encoder = GpuEncoder(GTX280, EncodeScheme.TABLE_5)
        encoder.upload_segment(segment)
        segment_ref = weakref.ref(segment)
        blocks_ref = weakref.ref(segment.blocks)
        encoder.drop_segment(segment.segment_id)
        del segment
        gc.collect()
        assert segment_ref() is None, "encoder kept the segment alive"
        assert blocks_ref() is None, "encoder kept the block matrix alive"

    def test_upload_allocates_no_segment_copy(self):
        """Uploading charges the modelled preprocessing but builds no
        host-side transform of the blocks: its peak allocation stays
        well under the segment's own size."""
        import tracemalloc

        segment = make_segment(128, 4096)
        size = segment.blocks.nbytes
        encoder = GpuEncoder(GTX280, EncodeScheme.TABLE_5)
        tracemalloc.start()
        try:
            encoder.upload_segment(segment)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size / 4, (
            f"upload_segment peaked at {peak} B for a {size} B segment"
        )

    def test_drop_is_idempotent_and_reupload_works(self):
        segment = make_segment(8, 32)
        encoder = GpuEncoder(GTX280, EncodeScheme.TABLE_5)
        encoder.upload_segment(segment)
        encoder.drop_segment(segment.segment_id)
        encoder.drop_segment(segment.segment_id)  # no KeyError
        encoder.upload_segment(segment)
        result = encoder.encode(segment, 4, np.random.default_rng(0))
        expected = matmul(result.coefficients, segment.blocks)
        assert np.array_equal(result.payloads, expected)
