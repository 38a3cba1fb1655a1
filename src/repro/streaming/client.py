"""Streaming clients: the playback model and the fault-tolerant transport.

Two layers live here:

* :class:`StreamingClient` closes the paper's loop from coding bandwidth
  to user experience: a client downloads coded blocks at the network
  rate, decodes segments at its device's modelled decode bandwidth, and
  plays them back at the media rate.  A segment becomes playable only
  after (a) n blocks have arrived and (b) the decode has finished — so a
  device whose decoder is too slow (e.g. single-segment GPU decoding at
  small block sizes, the Sec. 4.3 pathology) rebuffers even on a fast
  network.

* :class:`ClientSession` is the reliable transport on top of the batched
  serving pipeline: it pulls wire frames from a
  :class:`~repro.streaming.server.StreamingServer` round by round,
  unpacks them leniently (damaged frames are dropped and counted, never
  silently accepted), and NACKs — re-requests exactly the missing rank —
  whenever loss or corruption leaves the decoder short.  Rounds that make
  no rank progress trigger exponential backoff; too many of them raise
  :class:`~repro.errors.RetryExhaustedError`.  The rateless code makes
  the NACK trivial: the client never names lost blocks, it just asks for
  *any* ``n - rank`` fresh ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import (
    ConfigurationError,
    RetryExhaustedError,
    RetryLater,
)
from repro.faults import FaultPlan
from repro.obs.stats import CumulativeStats
from repro.rlnc.block import Segment
from repro.rlnc.decoder import ProgressiveDecoder
from repro.rlnc.wire import VERSION2, WireStats, frame_size
# perfbench's traced run patches this name: its "rlnc.wire.unpack" boundary.
from repro.rlnc.wire import unpack_frame  # noqa: F401
from repro.streaming.rounds import drive, receive_round
from repro.streaming.session import MediaProfile

if TYPE_CHECKING:
    from repro.serving import ServingEndpoint


@dataclass
class PlaybackReport:
    """Timeline of one playback session."""

    startup_delay_s: float
    rebuffer_events: int
    rebuffer_seconds: float
    segment_ready_times: list[float] = field(default_factory=list)

    @property
    def smooth(self) -> bool:
        return self.rebuffer_events == 0


class StreamingClient:
    """Models download -> decode -> play for a sequence of segments.

    Args:
        profile: media/coding configuration.
        download_bytes_per_second: network goodput for coded payloads
            (coefficient overhead is charged on top).
        decode_bytes_per_second: the device's decode bandwidth, from the
            GPU/CPU decode models.
        startup_segments: segments buffered before playback starts.
    """

    def __init__(
        self,
        profile: MediaProfile,
        *,
        download_bytes_per_second: float,
        decode_bytes_per_second: float,
        startup_segments: int = 1,
    ) -> None:
        if download_bytes_per_second <= 0 or decode_bytes_per_second <= 0:
            raise ConfigurationError("rates must be positive")
        if startup_segments < 1:
            raise ConfigurationError("must buffer at least one segment")
        self.profile = profile
        self.download_rate = download_bytes_per_second
        self.decode_rate = decode_bytes_per_second
        self.startup_segments = startup_segments

    def blocks_per_round(self, round_seconds: float) -> int:
        """Coded blocks to ask the server for per serving round.

        The batched serving pipeline drains requests in rounds; to
        sustain real-time playback a peer must request at least the
        blocks its media rate consumes per round interval.  Always at
        least 1 so a connected peer is represented in every round.
        """
        if round_seconds <= 0:
            raise ConfigurationError("round interval must be positive")
        per_second = self.profile.blocks_per_second_per_peer
        return max(1, math.ceil(per_second * round_seconds))

    def segment_download_seconds(self) -> float:
        """Time to receive n coded blocks of one segment (wire bytes)."""
        params = self.profile.params
        wire_bytes = params.num_blocks * params.coded_block_bytes
        return wire_bytes / self.download_rate

    def segment_decode_seconds(self) -> float:
        """Time to decode one downloaded segment."""
        return self.profile.params.segment_bytes / self.decode_rate

    def play(self, num_segments: int) -> PlaybackReport:
        """Simulate playing ``num_segments`` consecutive segments.

        Download and decode pipeline: segment i+1 downloads while
        segment i decodes; playback consumes one segment per
        ``segment_duration_seconds``.
        """
        if num_segments < 1:
            raise ConfigurationError("need at least one segment")
        download = self.segment_download_seconds()
        decode = self.segment_decode_seconds()
        duration = self.profile.segment_duration_seconds

        ready: list[float] = []
        download_done = 0.0
        decode_free = 0.0
        for _ in range(num_segments):
            download_done += download
            decode_start = max(download_done, decode_free)
            decode_free = decode_start + decode
            ready.append(decode_free)

        startup = ready[self.startup_segments - 1]
        rebuffer_events = 0
        rebuffer_seconds = 0.0
        play_clock = startup
        for index in range(num_segments):
            if ready[index] > play_clock:
                rebuffer_events += 1
                rebuffer_seconds += ready[index] - play_clock
                play_clock = ready[index]
            play_clock += duration
        return PlaybackReport(
            startup_delay_s=startup,
            rebuffer_events=rebuffer_events,
            rebuffer_seconds=rebuffer_seconds,
            segment_ready_times=ready,
        )

    def sustainable(self) -> bool:
        """True when the pipeline keeps up with real-time playback."""
        duration = self.profile.segment_duration_seconds
        return (
            self.segment_download_seconds() <= duration
            and self.segment_decode_seconds() <= duration
        )


# -- the fault-tolerant transport ------------------------------------------


@dataclass
class SessionStats(CumulativeStats):
    """Accounting for one :class:`ClientSession` lifetime.

    ``wire`` aggregates frame-level damage (checksum failures and
    malformed frames dropped by the lenient unpack); the remaining
    counters describe the retry state machine — how many NACKs were
    sent, how many no-progress rounds triggered backoff, and how long
    the session spent waiting it out.  ``stats.series("client")`` is the
    session's export (``client_nacks``, ``client_wire_frames_ok``, ...).
    """

    rounds: int = 0
    requests_sent: int = 0
    nacks: int = 0
    retries: int = 0
    backoff_rounds_waited: int = 0
    retry_later_responses: int = 0
    frames_received: int = 0
    blocks_innovative: int = 0
    blocks_discarded: int = 0
    segments_completed: int = 0
    wire: WireStats = field(default_factory=WireStats)


class ClientSession:
    """A reliable, NACK-driven fetch loop over the serving pipeline.

    One round of the protocol is ``pre_round`` (decide whether to ask
    the server for missing rank), the server's ``serve_round``, then
    :meth:`intake` (lenient unpack + decoder absorb + retry
    bookkeeping); :func:`~repro.streaming.rounds.drive` runs that loop
    for one session (:meth:`fetch_segment`) or many.  Loss and
    corruption — optionally injected deterministically through a
    :class:`~repro.faults.FaultPlan` — are repaired by re-requesting
    ``n - rank`` fresh coded blocks, backed off exponentially after
    rounds that make no rank progress.

    Args:
        server: the serving side (shared by all sessions under test) —
            any :class:`~repro.serving.ServingEndpoint`, so one session
            drives a single :class:`~repro.streaming.server.StreamingServer`
            and a sharded :class:`~repro.cluster.ServingCluster`
            identically.
        peer_id: this session's peer identity; connected on construction.
        fault_plan: optional deterministic fault injector applied to
            every received frame list (the wire under test).
        max_retries: consecutive no-progress rounds (or shed requests)
            tolerated per segment before
            :class:`~repro.errors.RetryExhaustedError`.
        base_backoff_rounds: idle rounds after the first miss.
        backoff_factor: multiplier per consecutive miss.
        max_backoff_rounds: backoff ceiling.
        max_rounds_per_segment: hard bound on total rounds per segment —
            the anti-hang guard for soak tests.
        wire_version: frame format to request from the server
            (:data:`~repro.rlnc.wire.VERSION2` by default, for digest
            trailers and sequence numbers).
        checksum: whether frames carry integrity trailers.
        upstream: source label charged in the decoder's corruption
            accounting for damage on this session's wire.
    """

    def __init__(
        self,
        server: "ServingEndpoint",
        peer_id: int,
        *,
        fault_plan: FaultPlan | None = None,
        max_retries: int = 8,
        base_backoff_rounds: int = 1,
        backoff_factor: int = 2,
        max_backoff_rounds: int = 32,
        max_rounds_per_segment: int = 10_000,
        wire_version: int = VERSION2,
        checksum: bool = True,
        upstream: object = "server",
    ) -> None:
        if max_retries < 1:
            raise ConfigurationError("max_retries must be >= 1")
        if base_backoff_rounds < 1 or max_backoff_rounds < base_backoff_rounds:
            raise ConfigurationError(
                "backoff bounds must satisfy 1 <= base <= max"
            )
        if backoff_factor < 1:
            raise ConfigurationError("backoff_factor must be >= 1")
        if max_rounds_per_segment < 1:
            raise ConfigurationError("max_rounds_per_segment must be >= 1")
        self.server = server
        self.peer_id = peer_id
        self.fault_plan = fault_plan
        self.max_retries = max_retries
        self.base_backoff_rounds = base_backoff_rounds
        self.backoff_factor = backoff_factor
        self.max_backoff_rounds = max_backoff_rounds
        self.max_rounds_per_segment = max_rounds_per_segment
        self.wire_version = wire_version
        self.checksum = checksum
        self.upstream = upstream
        self.stats = SessionStats()
        self._session = server.connect(peer_id)
        params = server.profile.params
        self._frame_bytes = frame_size(
            params.num_blocks,
            params.block_size,
            checksum=checksum,
            version=wire_version,
        )
        self._wire_key = (params.num_blocks, params.block_size, checksum, wire_version)
        self._decoder: ProgressiveDecoder | None = None
        # The finished segment's decoder, reset in place for the next.
        self._spare: ProgressiveDecoder | None = None
        self._segment_id: int | None = None
        self._segment_rounds = 0
        self._segment_requests = 0
        self._retries = 0
        self._cooldown = 0
        self._backoff = base_backoff_rounds
        self._idle_round = False

    @property
    def decoder(self) -> ProgressiveDecoder | None:
        """The in-progress segment's decoder (None between segments)."""
        return self._decoder

    @property
    def wire(self) -> WireStats:
        """This session's frame-damage counters (``stats.wire``)."""
        return self.stats.wire

    @property
    def complete(self) -> bool:
        """True when the current segment has reached full rank."""
        return self._decoder is not None and self._decoder.is_complete

    def begin_segment(self, segment_id: int) -> None:
        """Start fetching a segment: a reset decoder, fresh retry state.

        The previous segment's decoder is cleared in place and reused,
        so a session allocates its decoder arrays once.
        """
        if self._decoder is not None and not self._decoder.is_complete:
            raise ConfigurationError(
                f"segment {self._segment_id} fetch still in progress"
            )
        decoder = self._decoder or self._spare
        if decoder is None:
            decoder = ProgressiveDecoder(self.server.profile.params, segment_id)
        else:
            decoder._restart(segment_id)
        self._decoder = decoder
        self._segment_id = segment_id
        self._segment_rounds = 0
        self._segment_requests = 0
        self._retries = 0
        self._cooldown = 0
        self._backoff = self.base_backoff_rounds
        self._idle_round = False

    def pre_round(self) -> RetryLater | None:
        """Request missing rank from the server if this round needs to.

        Skips the request while backing off, while enough blocks are
        already queued server-side, or once the decoder is complete.
        A shed request (:class:`~repro.errors.RetryLater`) counts
        against the retry budget and extends the backoff by at least
        the server's hint.

        Returns:
            The server's :class:`~repro.errors.RetryLater` when the ask
            was shed, else ``None``.
        """
        decoder = self._require_segment()
        if decoder.is_complete:
            return None
        if self._cooldown > 0:
            self._cooldown -= 1
            self.stats.backoff_rounds_waited += 1
            self._idle_round = True
            return None
        missing = decoder.params.num_blocks - decoder.rank
        pending = self._session.blocks_pending
        if pending >= missing:
            return None
        response = self.server.request_blocks(
            self.peer_id, self._segment_id, missing - pending
        )
        if isinstance(response, RetryLater):
            self.stats.retry_later_responses += 1
            self._register_miss(min_cooldown=response.retry_after_rounds)
            self._idle_round = True
            return response
        self.stats.requests_sent += 1
        self._segment_requests += 1
        if self._segment_requests > 1:
            self.stats.nacks += 1
        return None

    def intake(self, wire_bytes) -> int:
        """Absorb one round's wire delivery; return innovative blocks.

        ``wire_bytes`` is the peer's slice of the server round (or
        ``None`` when the round granted it nothing): a cohort of one of
        :func:`~repro.streaming.rounds.receive_round`.  The round is
        viewed as one frame matrix, passes through the fault plan (if
        any), and is verified against this session's geometry:
        checksum failures, malformed frames and intact frames of
        another segment are counted in :attr:`SessionStats.wire` and
        charged to the upstream's corruption ledger — never absorbed.
        A round with an outstanding request but no rank progress counts
        as a miss and arms exponential backoff.

        Raises:
            RetryExhaustedError: after ``max_retries`` consecutive
                misses or ``max_rounds_per_segment`` total rounds.
        """
        return receive_round([self], [wire_bytes])[0]

    # -- the receive step's hooks (see rounds.receive_round) ---------------

    @property
    def _sink(self) -> object:
        return self

    def _open_round(self) -> int:
        """Count the round; return the segment its frames must carry."""
        self._require_segment()
        self.stats.rounds += 1
        self._segment_rounds += 1
        if self._segment_rounds > self.max_rounds_per_segment:
            raise RetryExhaustedError(
                f"segment {self._segment_id} exceeded "
                f"{self.max_rounds_per_segment} rounds"
            )
        return self._segment_id

    def _settle_may_raise(self) -> bool:
        """True when a round without rank progress exhausts the retries."""
        return not self._idle_round and self._retries >= self.max_retries

    def _take_round(self, rows: int, foreign: int, received: int):
        """Account the verified round; the ``(decoder, source)`` to
        absorb ``rows`` intact rows into, or ``None``."""
        decoder = self._decoder
        self.stats.frames_received += received
        if foreign:
            # An intact frame of another segment is damage on this wire.
            self.stats.wire.record_malformed(foreign)
        decoder.record_corrupt(self.upstream, received - rows)
        if not rows:
            return None
        if decoder.is_complete:
            self.stats.blocks_discarded += rows
            return None
        return decoder, self.upstream

    def _settle_round(self, rows: int, innovative: int | None) -> int:
        """Retry bookkeeping once the round is absorbed (``innovative``
        is ``None`` when nothing was); returns the innovative count."""
        if innovative is None:
            innovative = 0
        else:
            self.stats.blocks_innovative += innovative
            self.stats.blocks_discarded += rows - innovative
        if self._idle_round:
            self._idle_round = False
        elif innovative > 0 or self._decoder.is_complete:
            self._retries = 0
            self._backoff = self.base_backoff_rounds
        else:
            self._register_miss()
        return innovative

    def finish_segment(self, original_length: int | None = None) -> Segment:
        """Recover the completed segment and reset for the next one."""
        decoder = self._require_segment()
        segment = decoder.recover_segment(original_length)
        self.stats.segments_completed += 1
        self._spare, self._decoder = decoder, None
        self._segment_id = None
        return segment

    def fetch_segment(
        self, segment_id: int, original_length: int | None = None
    ) -> Segment:
        """Fetch one segment to completion, driving server rounds.

        The single-session convenience loop: :func:`~repro.streaming
        .rounds.drive` over this session alone, bounded by its own
        ``max_rounds_per_segment``.  Multi-session tests drive the same
        loop through :func:`drive_sessions` instead, so every session
        shares each server round.

        Raises:
            RetryExhaustedError: when the retry budget runs out.
            CapacityError: if this session (or the segment) is evicted
                mid-fetch — the clean rejection, never a stale view.
        """
        self.begin_segment(segment_id)
        for _ in drive(
            self.server,
            [self],
            checksum=self.checksum,
            version=self.wire_version,
            max_rounds=None,
        ):
            pass
        return self.finish_segment(original_length)

    # -- internals ---------------------------------------------------------

    def _require_segment(self) -> ProgressiveDecoder:
        if self._decoder is None:
            raise ConfigurationError(
                "no segment fetch in progress; call begin_segment first"
            )
        return self._decoder

    def _register_miss(self, *, min_cooldown: int = 0) -> None:
        self._retries += 1
        self.stats.retries += 1
        if self._retries > self.max_retries:
            raise RetryExhaustedError(
                f"segment {self._segment_id} made no progress after "
                f"{self.max_retries} retries"
            )
        self._cooldown = max(self._backoff, min_cooldown)
        self._backoff = min(
            self._backoff * self.backoff_factor, self.max_backoff_rounds
        )


def drive_sessions(
    server: "ServingEndpoint",
    sessions: list[ClientSession],
    *,
    max_rounds: int = 10_000,
) -> int:
    """Drive shared server rounds until every session's segment completes.

    The multi-peer counterpart of :meth:`ClientSession.fetch_segment`:
    :func:`~repro.streaming.rounds.drive` over every session, so each
    server round is one coalesced round for all of them.  All sessions
    must agree on wire settings since one server round serves them all.

    Returns:
        The number of server rounds driven.

    Raises:
        ConfigurationError: on mixed wire settings.
        RetryExhaustedError: if ``max_rounds`` elapse first.
    """
    if not sessions:
        return 0
    version = sessions[0].wire_version
    checksum = sessions[0].checksum
    for session in sessions:
        if session.wire_version != version or session.checksum != checksum:
            raise ConfigurationError(
                "all driven sessions must share wire_version and checksum"
            )
    return sum(
        1
        for _ in drive(
            server, sessions, checksum=checksum, version=version, max_rounds=max_rounds
        )
    )
