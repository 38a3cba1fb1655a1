"""GPU-accelerated recoding for relay nodes.

Recoding is the operation that justifies random linear codes over the
"more efficient" alternatives (Sec. 2): an intermediate node emits fresh
combinations of whatever it holds.  Computationally a recode of ``m``
buffered blocks into ``r`` outputs is a dense multiply of the random
(r, m) mix matrix with the buffered aggregate ``[C | x]`` — an
encode-shaped job over width ``n + k`` — so it runs on the same
table-based kernels and inherits their cost model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.spec import DeviceSpec
from repro.gpu.timing import KernelStats
from repro.kernels.cost_model import EncodeScheme, encode_stats
from repro.rlnc.block import CodedBlock, CodingParams
from repro.rlnc.recoder import Recoder


def recode_stats(
    spec: DeviceSpec,
    scheme: EncodeScheme,
    *,
    num_blocks: int,
    block_size: int,
    buffered: int,
    outputs: int,
) -> KernelStats:
    """Modelled cost of recoding ``outputs`` blocks from ``buffered``.

    The inner dimension is the buffer depth m (not n), and each output
    row spans the aggregate width n + k.
    """
    if buffered < 1 or outputs < 1:
        raise ConfigurationError("need at least one buffered block and output")
    width = num_blocks + block_size
    padded = -(-width // 4) * 4  # aggregate width rounded to whole words
    return encode_stats(
        spec,
        scheme,
        num_blocks=buffered,
        block_size=padded,
        coded_rows=outputs,
    )


class GpuRecoder:
    """A relay's recoding engine on the simulated GPU.

    Keeps the innovative blocks received in a
    :class:`~repro.rlnc.recoder.Recoder` (dependent ones are dropped);
    :meth:`recode` emits fresh combinations through it and returns the
    modelled kernel stats alongside them.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        params: CodingParams,
        *,
        scheme: EncodeScheme = EncodeScheme.TABLE_5,
        segment_id: int = 0,
    ) -> None:
        self.spec = spec
        self.params = params
        self.scheme = scheme
        self.segment_id = segment_id
        self._recoder = Recoder(params, segment_id)

    @property
    def buffered(self) -> int:
        """Independent blocks held (the buffer depth m)."""
        return self._recoder.buffered

    def add(self, block: CodedBlock) -> int:
        """Keep a received coded block if it is innovative; returns 0 or 1."""
        n, k = self.params.num_blocks, self.params.block_size
        if block.num_blocks != n or block.block_size != k:
            raise ConfigurationError("block geometry does not match recoder")
        return self._recoder.add(block)

    def recode(
        self, outputs: int, rng: np.random.Generator
    ) -> tuple[list[CodedBlock], KernelStats]:
        """Emit ``outputs`` recoded blocks plus the modelled kernel cost."""
        if not self.buffered:
            raise ConfigurationError("cannot recode an empty buffer")
        if outputs < 1:
            raise ConfigurationError("must produce at least one output")
        blocks = self._recoder.recode_batch(outputs, rng)
        stats = recode_stats(
            self.spec,
            self.scheme,
            num_blocks=self.params.num_blocks,
            block_size=self.params.block_size,
            buffered=self.buffered,
            outputs=outputs,
        )
        return blocks, stats

    def relay_bandwidth(self, outputs_per_buffer: int | None = None) -> float:
        """Recoded bytes/second the relay sustains at the current depth."""
        if not self.buffered:
            raise ConfigurationError("buffer is empty")
        outputs = (
            outputs_per_buffer
            if outputs_per_buffer is not None
            else self.params.num_blocks
        )
        stats = recode_stats(
            self.spec,
            self.scheme,
            num_blocks=self.params.num_blocks,
            block_size=self.params.block_size,
            buffered=self.buffered,
            outputs=outputs,
        )
        return outputs * self.params.block_size / stats.time_seconds(self.spec)
