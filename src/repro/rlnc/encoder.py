"""Random linear network encoder (paper Eq. 1).

The encoder draws a random coefficient vector per coded block and emits
the GF(2^8) linear combination of the segment's source blocks.  Three
coefficient policies are supported:

* **dense** — every coefficient uniform over the nonzero field elements,
  the paper's evaluation setting ("fully dense coding matrices");
* **sparse** — each coefficient is nonzero with a configurable density,
  the cheaper regime the paper notes would only raise throughput;
* **systematic** — the first ``n`` blocks are verbatim source blocks
  (identity coefficient rows), a standard practical optimization for the
  loss-free common case.

Batch encoding (:meth:`Encoder.encode_batch`) produces the coefficient and
payload matrices in one shot; this is the exact dataflow the GPU encoding
kernels consume.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gf256 import matmul, random_matrix
from repro.rlnc.block import CodedBlock, Segment


class Encoder:
    """Produces coded blocks from one segment.

    Args:
        segment: the source segment to encode.
        rng: numpy random generator for coefficient draws.
        density: probability that a coefficient is nonzero (1.0 = dense).
        systematic: emit the n source blocks first, then coded blocks.
    """

    def __init__(
        self,
        segment: Segment,
        rng: np.random.Generator,
        *,
        density: float = 1.0,
        systematic: bool = False,
    ) -> None:
        if not 0.0 < density <= 1.0:
            raise ConfigurationError(f"density must be in (0, 1], got {density}")
        self._segment = segment
        self._rng = rng
        self._density = density
        self._systematic = systematic
        self._emitted = 0

    @property
    def segment(self) -> Segment:
        return self._segment

    @property
    def blocks_emitted(self) -> int:
        """Total coded blocks produced so far."""
        return self._emitted

    def _draw_coefficients(self, count: int) -> np.ndarray:
        n = self._segment.blocks.shape[0]
        return random_matrix(count, n, self._rng, density=self._density)

    def encode_block(self) -> CodedBlock:
        """Emit the next coded block.

        In systematic mode the first n calls return the source blocks
        themselves (identity coefficient rows); afterwards blocks are
        random combinations as usual.
        """
        n = self._segment.blocks.shape[0]
        if self._systematic and self._emitted < n:
            coefficients = np.zeros(n, dtype=np.uint8)
            coefficients[self._emitted] = 1
            payload = self._segment.blocks[self._emitted].copy()
        else:
            coefficients = self._draw_coefficients(1)[0]
            payload = matmul(coefficients[None, :], self._segment.blocks)[0]
        self._emitted += 1
        return CodedBlock(
            coefficients=coefficients,
            payload=payload,
            segment_id=self._segment.segment_id,
        )

    def encode_batch(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Emit ``count`` coded blocks as (coefficients, payloads) matrices.

        Returns the (count, n) coefficient matrix C and the (count, k)
        coded-block matrix x = C b — the layout of paper Fig. 2 and the
        input format of every GPU kernel in :mod:`repro.kernels`.
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        n = self._segment.blocks.shape[0]
        rows = []
        systematic_left = (
            max(0, n - self._emitted) if self._systematic else 0
        )
        take_systematic = min(systematic_left, count)
        if take_systematic:
            eye = np.zeros((take_systematic, n), dtype=np.uint8)
            taken = np.arange(take_systematic)
            eye[taken, self._emitted + taken] = 1
            rows.append(eye)
            # Advance the systematic cursor the moment the identity rows
            # exist, so no later read (or partial failure) can re-derive a
            # stale boundary and repeat or skip a source index.
            self._emitted += take_systematic
        remaining = count - take_systematic
        if remaining:
            rows.append(self._draw_coefficients(remaining))
            self._emitted += remaining
        coefficients = rows[0] if len(rows) == 1 else np.vstack(rows)
        payloads = matmul(coefficients, self._segment.blocks)
        return coefficients, payloads

    def encode_blocks(self, count: int) -> list[CodedBlock]:
        """Emit ``count`` coded blocks as :class:`CodedBlock` objects."""
        coefficients, payloads = self.encode_batch(count)
        return [
            CodedBlock(
                coefficients=coefficients[i],
                payload=payloads[i],
                segment_id=self._segment.segment_id,
            )
            for i in range(count)
        ]
