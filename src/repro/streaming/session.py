"""Media sessions: segment geometry and per-peer streaming state.

Sec. 5.1.2's reference scenario: 512 KB media segments of 128 x 4 KB
blocks streamed at 768 Kbps, giving ~5.3-5.5 seconds of content per
segment (an acceptable client buffering delay).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.rlnc.block import CodingParams


@dataclass(frozen=True)
class MediaProfile:
    """A streaming configuration: coding geometry plus media bitrate.

    Attributes:
        params: the (n, k) coding geometry of each segment.
        stream_bps: media bitrate in bits/second.  The paper quotes
            "768 Kbps" and derives 1385 peers from 133 MB/s, which pins
            its convention to decimal kilobits (96,000 bytes/s).
    """

    params: CodingParams
    stream_bps: float = 768_000.0

    def __post_init__(self) -> None:
        if self.stream_bps <= 0:
            raise ConfigurationError("stream rate must be positive")

    @property
    def stream_bytes_per_second(self) -> float:
        return self.stream_bps / 8

    @property
    def segment_duration_seconds(self) -> float:
        """Seconds of media per segment (the client buffering delay)."""
        return self.params.segment_bytes * 8 / self.stream_bps

    @property
    def blocks_per_second_per_peer(self) -> float:
        """Coded blocks each peer consumes per second."""
        return self.stream_bytes_per_second / self.params.block_size


#: The paper's reference profile: 128 x 4 KB segments at 768 Kbps.
REFERENCE_PROFILE = MediaProfile(params=CodingParams(128, 4096))


@dataclass
class PeerSession:
    """One downstream peer's subscription state."""

    peer_id: int
    profile: MediaProfile
    next_segment: int = 0
    blocks_received: int = 0
    blocks_pending: int = 0
    blocks_requested: int = 0
    segments_completed: int = 0
    rounds_served: int = 0
    #: next wire sequence number for v2 frames sent to this peer
    #: (monotonic per session, stamped by ``serve_round(version=2)``).
    tx_sequence: int = 0

    def record_request(self, count: int) -> None:
        """Account coded blocks the peer has asked for but not received.

        The serving pipeline enqueues requests and drains them in
        coalesced rounds; the pending counter is what the fairness tests
        (and capacity monitoring) observe between rounds.
        """
        if count < 1:
            raise ConfigurationError("must request at least one block")
        self.blocks_requested += count
        self.blocks_pending += count

    def record_blocks(self, count: int) -> None:
        """Account delivered coded blocks, advancing segment progress.

        Peers need n innovative blocks per segment; dense random coding
        makes non-innovative deliveries rare enough that the session
        tracker counts raw blocks (the decoder handles the real check).
        """
        if count < 0:
            raise ConfigurationError("cannot deliver a negative block count")
        self.blocks_received += count
        self.blocks_pending = max(0, self.blocks_pending - count)
        n = self.profile.params.num_blocks
        while self.blocks_received >= (self.segments_completed + 1) * n:
            self.segments_completed += 1
            self.next_segment += 1
