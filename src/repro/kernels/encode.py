"""GPU encoding kernels: loop-based and the table-based ladder.

:class:`GpuEncoder` executes the paper's encoding dataflow functionally
(real coded bytes out) and attaches the calibrated cost model's timing.
The functional path differs per scheme exactly where the paper's kernels
differ:

* ``LOOP_BASED`` multiplies with the vectorized shift-and-add loop
  (:func:`repro.gf256.vector.mul_scalar_loop`) — Rijndael hand
  multiplication, the Sec. 4 baseline;
* ``TABLE_0`` uses the classic log/exp lookup per multiplication (Fig. 1);
* ``TABLE_1`` .. ``TABLE_5`` model kernels that first transform the
  source segment and the coefficient matrix into the logarithmic domain
  (Sec. 5.1.2), then multiply with single exp lookups (Fig. 5).  The
  five variants differ only in *where the exp table lives and how zero
  is tested*, which changes timing, not results — so their functional
  outputs all come from the engine's matmul, and tests assert they match
  the other schemes.

All schemes must produce byte-identical coded blocks for the same
coefficients; this is the key cross-validation between the paper's
kernels and the reference codec.
"""

from __future__ import annotations

import numpy as np

from repro.gf256 import (
    matmul,
    mul_scalar_loop,
    mul_scalar_table,
)
from repro.gf256.matrix import random_matrix
from repro.gpu.spec import DeviceSpec
from repro.gpu.timing import KernelStats, TransferStats
from repro.obs.trace import trace
from repro.kernels.base import EncodeResult
from repro.kernels.cost_model import EncodeScheme, encode_stats
from repro.rlnc.block import Segment


class GpuEncoder:
    """Encodes segments on the simulated GPU with a chosen scheme.

    Args:
        spec: the device to model (e.g. :data:`repro.gpu.GTX280`).
        scheme: which kernel of the Fig. 7 ladder to run.
    """

    def __init__(self, spec: DeviceSpec, scheme: EncodeScheme) -> None:
        self.spec = spec
        self.scheme = scheme
        #: Ids of uploaded segments, whose encodes the cost model charges
        #: without the one-time log-domain preprocessing.
        self._uploaded: set[int] = set()
        #: Host -> device transfer accounting for uploaded segments.
        self.transfers = TransferStats()

    def upload_segment(self, segment: Segment) -> float:
        """Move a segment into simulated device memory (Sec. 5.1.2).

        For log-domain schemes the modelled kernel also runs the one-time
        preprocessing of the segment's source blocks here; subsequent
        encodes of the segment are charged without it, the way a
        streaming server amortizes the transform over the thousands of
        coded blocks generated per segment.  The functional encode needs
        no host-side copy: the engine multiplies the blocks directly.

        Returns:
            The modelled PCIe transfer time in seconds.
        """
        self._uploaded.add(segment.segment_id)
        before = self.transfers.time_seconds(self.spec)
        self.transfers.bytes_to_device += segment.blocks.size
        self.transfers.transfers += 1
        return self.transfers.time_seconds(self.spec) - before

    def drop_segment(self, segment_id: int) -> None:
        """Release the device-resident preprocessing of one segment."""
        self._uploaded.discard(segment_id)

    def encode(
        self,
        segment: Segment,
        coded_rows: int,
        rng: np.random.Generator,
        *,
        coefficients: np.ndarray | None = None,
    ) -> EncodeResult:
        """Generate ``coded_rows`` coded blocks from ``segment``.

        Args:
            segment: source segment.
            coded_rows: number of coded blocks to produce.
            rng: generator for the random coefficient matrix.
            coefficients: fixed coefficient matrix (tests/cross-checks);
                drawn dense-randomly when omitted.

        Returns:
            An :class:`EncodeResult` with payloads and modelled stats.
        """
        n, k = segment.blocks.shape
        with trace("gpu_encode", scheme=self.scheme.name.lower()):
            if coefficients is None:
                coefficients = random_matrix(coded_rows, n, rng)
            payloads = self._run_functional(segment, coefficients)
            stats = encode_stats(
                self.spec,
                self.scheme,
                num_blocks=n,
                block_size=k,
                coded_rows=coefficients.shape[0],
                include_preprocessing=segment.segment_id not in self._uploaded,
            )
        return EncodeResult(
            coefficients=coefficients,
            payloads=payloads,
            stats=stats,
            spec=self.spec,
        )

    def estimate(
        self, *, num_blocks: int, block_size: int, coded_rows: int
    ) -> KernelStats:
        """Cost-model-only estimate (no functional work); for sweeps."""
        return encode_stats(
            self.spec,
            self.scheme,
            num_blocks=num_blocks,
            block_size=block_size,
            coded_rows=coded_rows,
        )

    # -- functional back-ends ------------------------------------------------

    def _run_functional(
        self, segment: Segment, coefficients: np.ndarray
    ) -> np.ndarray:
        if self.scheme is EncodeScheme.LOOP_BASED:
            return _loop_based_matmul(coefficients, segment.blocks)
        if self.scheme is EncodeScheme.TABLE_0:
            return _table_matmul(coefficients, segment.blocks)
        # TABLE_1..5 differ from each other only in modelled time; the
        # bytes come from the engine, so the streaming server's bulk path
        # shares one implementation with the reference codec.
        return matmul(coefficients, segment.blocks)


def _loop_based_matmul(coefficients: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Matrix product computed with the shift-and-add loop per row."""
    m = coefficients.shape[0]
    out = np.zeros((m, blocks.shape[1]), dtype=np.uint8)
    for row in range(m):
        for i, coefficient in enumerate(coefficients[row]):
            if coefficient:
                out[row] ^= mul_scalar_loop(blocks[i], int(coefficient))
    return out


def _table_matmul(coefficients: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Matrix product via classic per-multiplication table lookups."""
    m = coefficients.shape[0]
    out = np.zeros((m, blocks.shape[1]), dtype=np.uint8)
    for row in range(m):
        for i, coefficient in enumerate(coefficients[row]):
            if coefficient:
                out[row] ^= mul_scalar_table(blocks[i], int(coefficient))
    return out
