"""Recoding at intermediate nodes.

The defining capability of network coding (Sec. 1): an intermediate node
that has received some coded blocks — possibly fewer than n, possibly not
yet decodable — can emit *new* coded blocks that are random linear
combinations of what it holds.  The emitted block's coefficient vector is
the same combination applied to the held blocks' coefficient vectors, so
downstream decoders treat recoded blocks exactly like source-encoded ones.
This is the property that lets random linear codes "be recoded without
affecting the guarantee to decode", which fountain/chunked codes lack.

The buffer is stored as a pair of preallocated, geometrically grown
matrices rather than Python lists of rows, so batched intake
(:meth:`Recoder.add_batch`, fed directly by
:func:`repro.rlnc.wire.unpack_blocks`) is a single matrix assignment and
recoding reads contiguous views — no per-emit ``np.stack`` of the whole
buffer.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodingError
from repro.gf256.engine import ENGINE
from repro.obs import obs_counter
from repro.obs.trace import trace
from repro.rlnc.block import BlockBatch, CodedBlock, CodingParams

#: Initial row capacity of the held-block buffer.
_INITIAL_CAPACITY = 16


class Recoder:
    """Buffers received coded blocks and emits recoded combinations."""

    def __init__(self, params: CodingParams, segment_id: int = 0) -> None:
        self._params = params
        self._segment_id = segment_id
        capacity = min(_INITIAL_CAPACITY, max(1, params.num_blocks))
        self._coefficients = np.empty(
            (capacity, params.num_blocks), dtype=np.uint8
        )
        self._payloads = np.empty((capacity, params.block_size), dtype=np.uint8)
        self._count = 0

    @property
    def buffered(self) -> int:
        """Number of coded blocks held."""
        return self._count

    def _reserve(self, rows: int) -> None:
        """Grow the buffer geometrically to hold ``rows`` more blocks."""
        needed = self._count + rows
        capacity = self._coefficients.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_coefficients", "_payloads"):
            old = getattr(self, name)
            grown = np.empty((capacity, old.shape[1]), dtype=np.uint8)
            grown[: self._count] = old[: self._count]
            setattr(self, name, grown)

    def add(self, block: CodedBlock) -> None:
        """Buffer a received coded block for future recombination."""
        n, k = self._params.num_blocks, self._params.block_size
        if block.num_blocks != n or block.block_size != k:
            raise DecodingError("block geometry does not match recoder")
        self._reserve(1)
        self._coefficients[self._count] = block.coefficients
        self._payloads[self._count] = block.payload
        self._count += 1

    def add_batch(
        self,
        coefficients: np.ndarray | BlockBatch,
        payloads: np.ndarray | None = None,
    ) -> None:
        """Buffer a whole batch of blocks in one matrix assignment.

        Accepts either a :class:`BlockBatch` (e.g. the zero-copy views
        from :func:`repro.rlnc.wire.unpack_blocks`; rows are copied into
        the recoder's own storage here) or the raw coefficient/payload
        matrix pair.

        Raises:
            DecodingError: on geometry or row-count mismatch.
        """
        if isinstance(coefficients, BlockBatch):
            coefficients, payloads = coefficients.coefficients, coefficients.payloads
        elif payloads is None:
            raise DecodingError("payload matrix required with raw coefficients")
        if coefficients.ndim != 2 or payloads.ndim != 2:
            raise DecodingError("batch intake requires 2-D matrices")
        rows = coefficients.shape[0]
        if rows != payloads.shape[0]:
            raise DecodingError("coefficient/payload row counts differ")
        n, k = self._params.num_blocks, self._params.block_size
        if coefficients.shape[1] != n or payloads.shape[1] != k:
            raise DecodingError("batch geometry does not match recoder")
        with trace("recode_intake", segment=self._segment_id):
            self._reserve(rows)
            self._coefficients[self._count : self._count + rows] = coefficients
            self._payloads[self._count : self._count + rows] = payloads
            self._count += rows
        obs_counter("recoder_blocks_buffered").inc(rows)

    def recode(self, rng: np.random.Generator) -> CodedBlock:
        """Emit one recoded block combining everything buffered.

        Raises:
            DecodingError: if no blocks are buffered yet.
        """
        return self.recode_matrix(1, rng).row(0)

    def recode_matrix(self, count: int, rng: np.random.Generator) -> BlockBatch:
        """Emit ``count`` recoded blocks as one :class:`BlockBatch`.

        The whole batch is produced with one pair of engine matmuls (a
        (count, held) mix matrix against the buffered coefficient and
        payload matrices), so a relay serving many downstream peers pays
        the bulk-multiply fast path instead of ``count`` separate
        single-row products.  The buffered matrices are read as
        contiguous views — nothing is restacked per call.

        Raises:
            DecodingError: if no blocks are buffered yet.
        """
        if not self._count:
            raise DecodingError("cannot recode with an empty buffer")
        held = self._count
        n, k = self._params.num_blocks, self._params.block_size
        with trace("recode_emit", segment=self._segment_id):
            mix = rng.integers(1, 256, size=(count, held), dtype=np.uint8)
            coefficients = np.empty((count, n), dtype=np.uint8)
            payloads = np.empty((count, k), dtype=np.uint8)
            ENGINE.matmul(mix, self._coefficients[:held], out=coefficients)
            ENGINE.matmul(mix, self._payloads[:held], out=payloads)
            batch = BlockBatch(
                coefficients=coefficients,
                payloads=payloads,
                segment_id=self._segment_id,
            )
        obs_counter("recoder_blocks_emitted").inc(count)
        return batch

    def recode_batch(self, count: int, rng: np.random.Generator) -> list[CodedBlock]:
        """Emit ``count`` independently-mixed recoded blocks.

        Raises:
            DecodingError: if no blocks are buffered yet.
        """
        return self.recode_matrix(count, rng).rows()
