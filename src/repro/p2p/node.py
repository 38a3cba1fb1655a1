"""Peer behaviours for the content-distribution simulator.

Two per-node strategies, matching the comparison network coding papers
draw:

* :class:`CodingNode` — random linear network coding: every transmitted
  block is a fresh random combination of everything the node holds
  (recoding at intermediate nodes, Sec. 1's defining capability);
* :class:`ForwardingNode` — store-and-forward routing: nodes replicate
  and forward verbatim copies of blocks they hold (the source holds the
  n original blocks), so duplicate deliveries waste capacity.

Both track rank/progress so the simulator can measure time-to-decode.
"""

from __future__ import annotations

import numpy as np

from repro.rlnc.block import CodedBlock, CodingParams, Segment
from repro.rlnc.encoder import Encoder
from repro.rlnc.recoder import Recoder


class CodingNode:
    """A peer that decodes progressively and recodes everything it holds.

    Its rows live in one :class:`~repro.rlnc.recoder.Recoder`, whose
    progressive decoder gives the node's rank and recovered segment.
    """

    def __init__(
        self,
        name,
        params: CodingParams,
        rng: np.random.Generator,
        *,
        segment: Segment | None = None,
    ) -> None:
        self.name = name
        self.params = params
        self._rng = rng
        self._recoder = Recoder(params)
        self._source_encoder = (
            Encoder(segment, rng) if segment is not None else None
        )
        self.received = 0
        self.innovative = 0

    @property
    def is_source(self) -> bool:
        return self._source_encoder is not None

    @property
    def rank(self) -> int:
        n = self.params.num_blocks
        return n if self.is_source else self._recoder.buffered

    @property
    def is_complete(self) -> bool:
        return self.is_source or self._recoder.decoder.is_complete

    def receive(self, block: CodedBlock) -> bool:
        """Absorb one block; returns True if it raised the node's rank."""
        if self.is_source:
            return False
        self.received += 1
        was_innovative = self._recoder.add(block) == 1
        if was_innovative:
            self.innovative += 1
        return was_innovative

    def emit(self) -> CodedBlock | None:
        """Produce one block to send: encode at the source, recode elsewhere."""
        if self._source_encoder is not None:
            return self._source_encoder.encode_block()
        if self._recoder.buffered == 0:
            return None
        return self._recoder.recode(self._rng)

    def recover(self) -> Segment:
        return self._recoder.decoder.recover_segment()


class ForwardingNode:
    """A peer that stores and forwards verbatim blocks (no coding).

    The source owns all n original blocks; other peers accumulate the
    distinct originals they have seen.  ``emit`` picks a uniformly random
    held block — the policy that suffers the coupon-collector tail and
    the butterfly bottleneck.
    """

    def __init__(
        self,
        name,
        params: CodingParams,
        rng: np.random.Generator,
        *,
        segment: Segment | None = None,
    ) -> None:
        self.name = name
        self.params = params
        self._rng = rng
        self._blocks: dict[int, CodedBlock] = {}
        self.received = 0
        self.innovative = 0
        self._segment = segment
        if segment is not None:
            for index in range(params.num_blocks):
                coefficients = np.zeros(params.num_blocks, dtype=np.uint8)
                coefficients[index] = 1
                self._blocks[index] = CodedBlock(
                    coefficients=coefficients,
                    payload=segment.blocks[index].copy(),
                    segment_id=segment.segment_id,
                )

    @property
    def is_source(self) -> bool:
        return self._segment is not None

    @property
    def rank(self) -> int:
        return len(self._blocks)

    @property
    def is_complete(self) -> bool:
        return len(self._blocks) == self.params.num_blocks

    def receive(self, block: CodedBlock) -> bool:
        if self.is_source:
            return False
        self.received += 1
        index = int(np.flatnonzero(block.coefficients)[0])
        if index in self._blocks:
            return False
        self._blocks[index] = block
        self.innovative += 1
        return True

    def emit(self) -> CodedBlock | None:
        if not self._blocks:
            return None
        index = self._rng.choice(sorted(self._blocks))
        return self._blocks[int(index)]

    def recover(self) -> Segment:
        from repro.errors import DecodingError

        if not self.is_complete:
            raise DecodingError(f"node {self.name} holds only {self.rank} blocks")
        blocks = np.stack(
            [self._blocks[i].payload for i in range(self.params.num_blocks)]
        )
        return Segment(blocks=blocks)
