"""Multi-segment (generation) management.

Content larger than one segment is split into successive segments, each
coded independently (the standard "generation" construction the paper
inherits from practical systems like Avalanche).  This module provides:

* :func:`split_into_segments` / :func:`join_segments` — content
  segmentation and reassembly;
* :class:`MultiSegmentDecoder` — tracks one decoder per segment and routes
  incoming blocks, the receiver-side counterpart of the paper's
  multi-segment decoding scenario (Sec. 5.2), where "a peer might receive
  multiple video segments at the same time".
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import DecodingError
from repro.rlnc.block import CodedBlock, CodingParams, Segment
from repro.rlnc.decoder import ProgressiveDecoder


def split_into_segments(data: bytes, params: CodingParams) -> list[Segment]:
    """Split ``data`` into as many segments as needed (last one padded)."""
    step = params.segment_bytes
    segments = []
    for segment_id, start in enumerate(range(0, max(len(data), 1), step)):
        chunk = data[start : start + step]
        segments.append(Segment.from_bytes(chunk, params, segment_id=segment_id))
    return segments


def join_segments(segments: Iterable[Segment]) -> bytes:
    """Reassemble the original byte stream from decoded segments.

    Segments are ordered by ``segment_id``; each contributes its
    de-padded payload (``original_length`` is honoured when present).
    """
    ordered = sorted(segments, key=lambda segment: segment.segment_id)
    return b"".join(segment.to_bytes() for segment in ordered)


class MultiSegmentDecoder:
    """Routes coded blocks from interleaved segments to per-segment decoders.

    Decoders are created lazily as blocks from new segments arrive, which
    matches a streaming receiver that learns segment ids from the wire.
    """

    def __init__(self, params: CodingParams) -> None:
        self._params = params
        self._decoders: dict[int, ProgressiveDecoder] = {}
        self._completed: dict[int, Segment] = {}

    @property
    def params(self) -> CodingParams:
        return self._params

    @property
    def segments_started(self) -> int:
        return len(self._decoders)

    @property
    def segments_completed(self) -> int:
        return len(self._completed)

    def decoder_for(self, segment_id: int) -> ProgressiveDecoder:
        """Return (creating if necessary) the decoder for one segment."""
        if segment_id not in self._decoders:
            self._decoders[segment_id] = ProgressiveDecoder(
                self._params, segment_id=segment_id
            )
        return self._decoders[segment_id]

    def consume(self, block: CodedBlock) -> bool:
        """Route one block; return True if it was innovative for its segment.

        Blocks for already-completed segments are counted as redundant and
        dropped rather than raising, since overshoot is routine when many
        senders serve one receiver.
        """
        if block.segment_id in self._completed:
            return False
        decoder = self.decoder_for(block.segment_id)
        innovative = decoder.consume(block)
        if decoder.is_complete:
            self._completed[block.segment_id] = decoder.recover_segment()
        return innovative

    def is_complete(self, expected_segments: int) -> bool:
        """True once ``expected_segments`` segments have fully decoded."""
        return len(self._completed) >= expected_segments

    def recover_bytes(self, expected_segments: int, total_length: int) -> bytes:
        """Reassemble the stream once all expected segments are decoded.

        Raises:
            DecodingError: if any expected segment is still incomplete.
        """
        if not self.is_complete(expected_segments):
            missing = [
                sid for sid in range(expected_segments) if sid not in self._completed
            ]
            raise DecodingError(f"segments not yet decoded: {missing}")
        data = join_segments(
            self._completed[sid] for sid in range(expected_segments)
        )
        return data[:total_length]


def interleave_round_robin(
    block_lists: list[list[CodedBlock]], rng: np.random.Generator | None = None
) -> list[CodedBlock]:
    """Interleave per-segment block lists into one arrival order.

    Round-robin across segments — the arrival pattern that motivates
    multi-segment decoding.  With ``rng`` given, the order within each
    round is shuffled to model network reordering.
    """
    arrivals: list[CodedBlock] = []
    longest = max((len(blocks) for blocks in block_lists), default=0)
    for round_index in range(longest):
        round_blocks = [
            blocks[round_index]
            for blocks in block_lists
            if round_index < len(blocks)
        ]
        if rng is not None and len(round_blocks) > 1:
            order = rng.permutation(len(round_blocks))
            round_blocks = [round_blocks[i] for i in order]
        arrivals.extend(round_blocks)
    return arrivals
