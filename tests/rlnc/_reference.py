"""Seed-era reference progressive decoder, pinned for cross-validation.

This module preserves the pre-engine implementation of
:class:`~repro.rlnc.decoder.ProgressiveDecoder` byte for byte: eager
reduced row-echelon maintenance over the full aggregate ``[C | x]``
matrix, with one Python-loop trip per live pivot for forward reduction
and back-elimination.

It exists so the vectorized decoder can be proven byte-exact against the
original dataflow (``tests/rlnc/test_decoder_golden.py``) and so the
hot-path benchmarks measure a true before/after on the same stream
(``benchmarks/test_hot_paths.py``).  It lives with the tests, outside
the engine-routing guard's reach, because its job is to stay frozen at
the seed formulation — do not "optimize" it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodingError
from repro.gf256.tables import INV, MUL_TABLE
from repro.rlnc.block import CodedBlock, CodingParams, Segment


class ReferenceProgressiveDecoder:
    """The seed implementation of the progressive Gauss–Jordan decoder."""

    def __init__(self, params: CodingParams, segment_id: int = 0) -> None:
        n, k = params.num_blocks, params.block_size
        self._params = params
        self._segment_id = segment_id
        self._rows = np.zeros((n, n + k), dtype=np.uint8)
        self._pivot_to_row: dict[int, int] = {}
        self._received = 0
        self._discarded = 0

    @property
    def params(self) -> CodingParams:
        return self._params

    @property
    def rank(self) -> int:
        """Number of innovative blocks absorbed so far."""
        return len(self._pivot_to_row)

    @property
    def received(self) -> int:
        """Total blocks offered to the decoder."""
        return self._received

    @property
    def discarded(self) -> int:
        """Blocks that reduced to zero (linearly dependent) and were dropped."""
        return self._discarded

    @property
    def is_complete(self) -> bool:
        return self.rank == self._params.num_blocks

    def consume(self, block: CodedBlock) -> bool:
        """Absorb one coded block; return True if it was innovative."""
        n, k = self._params.num_blocks, self._params.block_size
        if block.num_blocks != n or block.block_size != k:
            raise DecodingError(
                f"block geometry ({block.num_blocks}, {block.block_size}) does "
                f"not match decoder ({n}, {k})"
            )
        if self.is_complete:
            raise DecodingError("decoder already holds a full-rank system")
        self._received += 1

        incoming = np.empty(n + k, dtype=np.uint8)
        incoming[:n] = block.coefficients
        incoming[n:] = block.payload

        for pivot_col, row_index in self._pivot_to_row.items():
            factor = incoming[pivot_col]
            if factor:
                incoming ^= MUL_TABLE[factor][self._rows[row_index]]

        support = np.nonzero(incoming[:n])[0]
        if support.size == 0:
            self._discarded += 1
            return False
        pivot_col = int(support[0])

        lead = int(incoming[pivot_col])
        if lead != 1:
            incoming = MUL_TABLE[INV[lead]][incoming]

        for row_index in self._pivot_to_row.values():
            factor = self._rows[row_index][pivot_col]
            if factor:
                self._rows[row_index] ^= MUL_TABLE[factor][incoming]

        row_index = self.rank
        self._rows[row_index] = incoming
        self._pivot_to_row[pivot_col] = row_index
        return True

    def dense_state(self) -> tuple[np.ndarray, dict[int, int]]:
        """Expose the RREF aggregate matrix and pivot map for golden tests."""
        return self._rows, dict(self._pivot_to_row)

    def recover_segment(self, original_length: int | None = None) -> Segment:
        """Return the decoded segment (requires completion)."""
        if not self.is_complete:
            raise DecodingError(
                f"cannot recover segment at rank {self.rank} < "
                f"{self._params.num_blocks}"
            )
        n, k = self._params.num_blocks, self._params.block_size
        blocks = np.empty((n, k), dtype=np.uint8)
        for pivot_col, row_index in self._pivot_to_row.items():
            blocks[pivot_col] = self._rows[row_index][n:]
        return Segment(
            blocks=blocks,
            segment_id=self._segment_id,
            original_length=original_length,
        )
