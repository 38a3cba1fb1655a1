"""Recoding at intermediate nodes.

The defining capability of network coding (Sec. 1): an intermediate node
that has received some coded blocks — possibly fewer than n, possibly not
yet decodable — can emit *new* coded blocks that are random linear
combinations of what it holds.  The emitted block's coefficient vector is
the same combination applied to the held blocks' coefficient vectors, so
downstream decoders treat recoded blocks exactly like source-encoded ones.
This is the property that lets random linear codes "be recoded without
affecting the guarantee to decode", which fountain/chunked codes lack.

The rows a recoder holds are the accepted rows of its own
:class:`~repro.rlnc.decoder.ProgressiveDecoder`: intake is the decoder's
progressive Gauss–Jordan, so a dependent block reduces to zero and is
dropped, :attr:`Recoder.buffered` is the rank held, and recoding mixes
the decoder's raw rows (:meth:`~repro.rlnc.decoder.ProgressiveDecoder.accepted_rows`)
with one pair of engine matmuls.  A node that both decodes and recodes
keeps one copy of its rows, here.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodingError
from repro.gf256.engine import ENGINE
from repro.obs.trace import trace
from repro.rlnc.block import BlockBatch, CodedBlock, CodingParams
from repro.rlnc.decoder import ProgressiveDecoder


class Recoder:
    """Keeps the innovative blocks it receives; emits recoded combinations."""

    def __init__(self, params: CodingParams, segment_id: int = 0) -> None:
        self._segment_id = segment_id
        self._decoder = ProgressiveDecoder(params, segment_id)
        self._offered_at_full_rank = 0

    @property
    def decoder(self) -> ProgressiveDecoder:
        """The decoder holding the rows (rank, recovery, quarantine)."""
        return self._decoder

    @property
    def buffered(self) -> int:
        """Independent coded blocks held: the decoder's rank."""
        return self._decoder.rank

    @property
    def discarded(self) -> int:
        """Blocks dropped: dependent ones, and any offered at full rank."""
        return self._decoder.discarded + self._offered_at_full_rank

    def add(self, block: CodedBlock) -> int:
        """Keep a received coded block if it is innovative; returns 0 or 1.

        Raises:
            DecodingError: on geometry mismatch.
        """
        return self.add_batch(block.coefficients[None, :], block.payload[None, :])

    def add_batch(
        self,
        coefficients: np.ndarray | BlockBatch,
        payloads: np.ndarray | None = None,
    ) -> int:
        """Keep a batch's innovative rows; returns how many there were.

        One :meth:`~repro.rlnc.decoder.ProgressiveDecoder.consume_batch`
        call: accepted rows are copied into the decoder's own storage,
        dependent rows are dropped.  Rows offered once the recoder holds
        full rank are discarded and counted in :attr:`discarded`.

        Accepts either a :class:`BlockBatch` (e.g. the zero-copy views
        from :func:`repro.rlnc.wire.unpack_blocks`) or the raw
        coefficient/payload matrix pair.

        Raises:
            DecodingError: on geometry or row-count mismatch.
        """
        decoder = self._offer(len(coefficients))
        if decoder is None:
            return 0
        with trace("recode_intake", segment=self._segment_id):
            return decoder.consume_batch(coefficients, payloads)

    def _offer(self, rows: int) -> ProgressiveDecoder | None:
        """The decoder that takes ``rows`` offered rows, or ``None``.

        At full rank the rows are counted in :attr:`discarded` instead.
        A receiving cohort absorbs into the returned decoder with every
        other receiver's (:func:`~repro.rlnc.decoder.consume_cohort`).
        """
        if self._decoder.is_complete:
            self._offered_at_full_rank += rows
            return None
        return self._decoder

    def recode(self, rng: np.random.Generator) -> CodedBlock:
        """Emit one recoded block combining everything held.

        Raises:
            DecodingError: if no blocks are held yet.
        """
        return self.recode_matrix(1, rng).row(0)

    def recode_matrix(self, count: int, rng: np.random.Generator) -> BlockBatch:
        """Emit ``count`` recoded blocks as one :class:`BlockBatch`.

        The whole batch is produced with one pair of engine matmuls (a
        (count, held) mix matrix against the held coefficient and
        payload matrices), so a relay serving many downstream peers pays
        the bulk-multiply fast path instead of ``count`` separate
        single-row products.  The held rows are read as contiguous views
        of the decoder's storage — nothing is restacked per call.

        Raises:
            DecodingError: if no blocks are held yet.
        """
        held_coefficients, held_payloads = self._decoder.accepted_rows()
        held = len(held_coefficients)
        if not held:
            raise DecodingError("cannot recode with an empty buffer")
        with trace("recode_emit", segment=self._segment_id):
            mix = rng.integers(1, 256, size=(count, held), dtype=np.uint8)
            coefficients = np.empty((count, held_coefficients.shape[1]), np.uint8)
            payloads = np.empty((count, held_payloads.shape[1]), np.uint8)
            ENGINE.matmul(mix, held_coefficients, out=coefficients)
            ENGINE.matmul(mix, held_payloads, out=payloads)
            return BlockBatch(
                coefficients=coefficients,
                payloads=payloads,
                segment_id=self._segment_id,
            )

    def recode_batch(self, count: int, rng: np.random.Generator) -> list[CodedBlock]:
        """Emit ``count`` independently-mixed recoded blocks.

        Raises:
            DecodingError: if no blocks are held yet.
        """
        return self.recode_matrix(count, rng).rows()
