"""GPU decoding kernels: single-segment progressive and multi-segment
two-stage decoding.

:class:`GpuSingleSegmentDecoder` models the Sec. 4.2.2 partitioning —
progressive Gauss–Jordan with each SM owning a slice of the coded matrix
and a private coefficient copy — and :class:`GpuMultiSegmentDecoder`
models the Sec. 5.2 scheme: one (or two) whole segments per SM, decoding
via ``[C | I]`` inversion plus a fully parallel multiply.  Both execute
the decode functionally so recovered segments are byte-exact.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, DecodingError, SingularMatrixError
from repro.gf256 import matmul, select_and_invert
from repro.gpu.spec import DeviceSpec
from repro.kernels.base import DecodeResult
from repro.kernels.cost_model import (
    DecodeOptions,
    EncodeScheme,
    decode_multi_segment_stats,
    decode_single_segment_stats,
)
from repro.rlnc.block import CodedBlock, CodingParams, Segment
from repro.rlnc.decoder import ProgressiveDecoder


class GpuSingleSegmentDecoder:
    """Progressive Gauss–Jordan decode of one segment on the GPU.

    The functional work reuses the reference :class:`ProgressiveDecoder`;
    timing comes from the single-segment cost model, which captures the
    serialization (one coded block at a time, a barrier per row
    operation) that makes this kernel collapse at small block sizes.
    """

    def __init__(
        self, spec: DeviceSpec, options: DecodeOptions = DecodeOptions()
    ) -> None:
        self.spec = spec
        self.options = options

    def decode(
        self, params: CodingParams, blocks: list[CodedBlock]
    ) -> DecodeResult:
        """Decode one segment from a stream of coded blocks.

        Raises:
            DecodingError: if the blocks do not reach full rank.
        """
        decoder = ProgressiveDecoder(params)
        for block in blocks:
            decoder.consume(block)
            if decoder.is_complete:
                break
        if not decoder.is_complete:
            raise DecodingError(
                f"only rank {decoder.rank} of {params.num_blocks} reached"
            )
        segment = decoder.recover_segment()
        stats = decode_single_segment_stats(
            self.spec,
            num_blocks=params.num_blocks,
            block_size=params.block_size,
            options=self.options,
        )
        return DecodeResult(segments=[segment], stats=stats, spec=self.spec)

    def estimate(self, *, num_blocks: int, block_size: int):
        """Cost-model-only stats for parameter sweeps."""
        return decode_single_segment_stats(
            self.spec,
            num_blocks=num_blocks,
            block_size=block_size,
            options=self.options,
        )


class GpuMultiSegmentDecoder:
    """Two-stage multi-segment decode (Sec. 5.2).

    Each segment must supply exactly n linearly independent coded blocks
    (callers typically gather a few spares and retry on the rare singular
    draw).  Stage 1 inverts every segment's coefficient matrix; stage 2
    recovers the source blocks with the table-based parallel multiply.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        *,
        stage2_scheme: EncodeScheme = EncodeScheme.TABLE_5,
        options: DecodeOptions = DecodeOptions(),
    ) -> None:
        self.spec = spec
        self.stage2_scheme = stage2_scheme
        self.options = options

    def decode(
        self, params: CodingParams, per_segment_blocks: dict[int, list[CodedBlock]]
    ) -> DecodeResult:
        """Decode several segments concurrently.

        Args:
            params: common (n, k) geometry.
            per_segment_blocks: segment id -> at least n coded blocks.

        Raises:
            ConfigurationError: if any segment has fewer than n blocks.
            SingularMatrixError: if a segment's blocks do not contain n
                independent rows (supplying a couple of spare blocks per
                segment makes this vanishingly rare).
        """
        n = params.num_blocks
        if not per_segment_blocks:
            raise ConfigurationError("no segments supplied")
        segments: list[Segment] = []
        for segment_id, blocks in sorted(per_segment_blocks.items()):
            if len(blocks) < n:
                raise ConfigurationError(
                    f"segment {segment_id} has {len(blocks)} blocks; needs {n}"
                )
            # Row selection over every candidate, spares included, and
            # stage 1 in one elimination on the coefficients only.
            try:
                chosen, c_inverse = select_and_invert(
                    np.stack([b.coefficients for b in blocks])
                )
            except SingularMatrixError as exc:
                raise SingularMatrixError(f"segment {segment_id}: {exc}") from None
            payloads = np.stack([blocks[int(index)].payload for index in chosen])
            source = matmul(c_inverse, payloads)  # stage 2
            segments.append(Segment(blocks=source, segment_id=segment_id))
        stats, share = decode_multi_segment_stats(
            self.spec,
            num_blocks=n,
            block_size=params.block_size,
            num_segments=len(segments),
            stage2_scheme=self.stage2_scheme,
            options=self.options,
        )
        return DecodeResult(
            segments=segments,
            stats=stats,
            spec=self.spec,
            first_stage_share=share,
        )

    def estimate(self, *, num_blocks: int, block_size: int, num_segments: int):
        """Cost-model-only (stats, first_stage_share) for sweeps."""
        return decode_multi_segment_stats(
            self.spec,
            num_blocks=num_blocks,
            block_size=block_size,
            num_segments=num_segments,
            stage2_scheme=self.stage2_scheme,
            options=self.options,
        )
