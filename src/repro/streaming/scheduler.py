"""Request scheduling for the streaming pipeline, on both sides of the wire.

Client side: a VoD client must decide which segment to fetch next so that
every segment's coded blocks arrive (and decode) before its playback
deadline.  :class:`SegmentScheduler` implements the standard
earliest-deadline-first policy with a bounded lookahead window — enough
machinery for the examples and the pipeline tests, and the natural place
where the paper's "peer might receive multiple video segments at the same
time" multi-segment regime (Sec. 5.2) arises: the scheduler keeps several
segments in flight whenever bandwidth allows.

Server side: :class:`ServeRoundScheduler` plans one serving round over
the queue of pending per-peer block requests — it coalesces every
request against the same segment into a single engine-level batch
encode, while enforcing the round-robin fairness contract: with a
per-peer quota ``q``, every peer with pending demand is granted exactly
``min(pending, q)`` blocks per round, in FIFO order of its queued
requests, and ungranted remainders carry over to the next round without
losing their queue position.  No session can starve: a peer's grant
never depends on how much *other* peers requested.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.streaming.session import MediaProfile


@dataclass(frozen=True)
class BlockRequest:
    """One peer's pending ask for coded blocks of one segment.

    ``priority`` biases the serving order under load: higher values are
    planned first within a round (ties keep FIFO order).  The server sets
    it to favour nearly-complete sessions — a peer missing 3 blocks
    outranks a peer asking for a whole segment, so retransmission NACKs
    finish stragglers instead of queueing behind bulk fetches.
    """

    peer_id: int
    segment_id: int
    num_blocks: int
    priority: int = 0

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ConfigurationError(
                f"must request at least one block, got {self.num_blocks}"
            )


@dataclass(frozen=True)
class RoundPlan:
    """One serving round: per-segment coalesced grants plus carryover.

    Attributes:
        grants: ``segment_id -> [(peer_id, count), ...]`` in grant
            order; each segment's list becomes one coalesced encode.
        carryover: ungranted request remainders, in original queue
            order, to be re-enqueued for the next round.
    """

    grants: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    carryover: list[BlockRequest] = field(default_factory=list)

    @property
    def total_blocks(self) -> int:
        """Coded blocks the round will produce across all segments."""
        return sum(
            count for allocations in self.grants.values() for _, count in allocations
        )

    @property
    def peers_served(self) -> set[int]:
        """Peers receiving at least one block this round."""
        return {
            peer_id
            for allocations in self.grants.values()
            for peer_id, _ in allocations
        }


class ServeRoundScheduler:
    """Coalesces queued block requests into per-segment serving rounds.

    Args:
        per_peer_quota: most blocks any one peer may be granted per
            round (``None`` = unbounded).  A finite quota bounds one
            round's latency — a peer asking for a whole segment cannot
            monopolize the encoder while others wait.
    """

    def __init__(self, *, per_peer_quota: int | None = None) -> None:
        if per_peer_quota is not None and per_peer_quota < 1:
            raise ConfigurationError(
                f"per-peer quota must be >= 1, got {per_peer_quota}"
            )
        self.per_peer_quota = per_peer_quota

    def plan_round(self, requests: Iterable[BlockRequest]) -> RoundPlan:
        """Plan one round over the queued requests (FIFO, quota-bounded).

        Grants to the same (peer, segment) pair merge into one entry, so
        the fan-out after the coalesced encode is one contiguous row
        range per peer per segment.

        Requests are planned in descending ``priority`` order (stable, so
        equal priorities keep FIFO order — with the default priority of 0
        this is exactly the original FIFO behaviour).  Carryover keeps
        the original queue order regardless of priority, so a
        deprioritized request never loses its queue position.

        Each call starts every peer at a fresh ``per_peer_quota``: the
        previous round has drained by then, because every endpoint
        plans and serves a round in one step (``EagerRounds.begin_round``)
        and a cluster worker refuses a second round in flight.
        """
        plan = RoundPlan()
        budgets: dict[int, int] = {}
        merged: dict[tuple[int, int], int] = {}
        ordered = sorted(
            enumerate(requests), key=lambda item: -item[1].priority
        )
        carry: list[tuple[int, BlockRequest]] = []
        for position, request in ordered:
            if self.per_peer_quota is None:
                granted = request.num_blocks
            else:
                budget = budgets.setdefault(request.peer_id, self.per_peer_quota)
                granted = min(request.num_blocks, budget)
                budgets[request.peer_id] = budget - granted
            if granted:
                key = (request.segment_id, request.peer_id)
                if key in merged:
                    merged[key] += granted
                else:
                    merged[key] = granted
            remainder = request.num_blocks - granted
            if remainder:
                carry.append(
                    (
                        position,
                        BlockRequest(
                            request.peer_id,
                            request.segment_id,
                            remainder,
                            priority=request.priority,
                        ),
                    )
                )
        carry.sort(key=lambda entry: entry[0])
        plan.carryover.extend(request for _, request in carry)
        for (segment_id, peer_id), count in merged.items():
            plan.grants.setdefault(segment_id, []).append((peer_id, count))
        return plan


@dataclass(frozen=True)
class ScheduledRequest:
    """One segment-fetch decision."""

    segment_index: int
    deadline_s: float
    slack_s: float

    @property
    def at_risk(self) -> bool:
        """True when the fetch is not expected to finish in time."""
        return self.slack_s < 0


class SegmentScheduler:
    """Earliest-deadline-first segment scheduling with a lookahead window.

    Args:
        profile: media/coding configuration (sets segment duration).
        total_segments: length of the content.
        lookahead: how many segments beyond the playhead may be in
            flight simultaneously (>= 2 enables the multi-segment decode
            regime).
    """

    def __init__(
        self,
        profile: MediaProfile,
        total_segments: int,
        *,
        lookahead: int = 4,
    ) -> None:
        if total_segments < 1:
            raise ConfigurationError("content needs at least one segment")
        if lookahead < 1:
            raise ConfigurationError("lookahead must be >= 1")
        self.profile = profile
        self.total_segments = total_segments
        self.lookahead = lookahead

    def playhead_segment(self, media_position_s: float) -> int:
        """Segment index currently playing at a media position."""
        duration = self.profile.segment_duration_seconds
        return min(self.total_segments - 1, int(media_position_s / duration))

    def deadline(self, segment_index: int, playback_start_s: float) -> float:
        """Wall-clock time by which a segment must be decoded."""
        if not 0 <= segment_index < self.total_segments:
            raise ConfigurationError(
                f"segment {segment_index} outside [0, {self.total_segments})"
            )
        duration = self.profile.segment_duration_seconds
        return playback_start_s + segment_index * duration

    def next_request(
        self,
        *,
        now_s: float,
        playback_start_s: float,
        media_position_s: float,
        completed: set[int],
        in_flight: set[int],
        expected_fetch_s: float,
    ) -> ScheduledRequest | None:
        """Pick the next segment to request, or None if nothing to do.

        EDF over the window [playhead, playhead + lookahead), skipping
        segments already decoded or in flight.  ``expected_fetch_s`` is
        the client's estimate of download + decode time, used to compute
        the request's slack.
        """
        playhead = self.playhead_segment(media_position_s)
        window_end = min(self.total_segments, playhead + self.lookahead)
        for index in range(playhead, window_end):
            if index in completed or index in in_flight:
                continue
            deadline = self.deadline(index, playback_start_s)
            return ScheduledRequest(
                segment_index=index,
                deadline_s=deadline,
                slack_s=deadline - now_s - expected_fetch_s,
            )
        return None

    def concurrent_fetch_budget(
        self, download_bytes_per_second: float
    ) -> int:
        """How many segments can stream concurrently at a download rate.

        Each in-flight segment must sustain the media rate; the surplus
        over one stream is the budget for prefetching further segments —
        the quantity that decides whether the receiver operates in the
        paper's multi-segment decoding regime.
        """
        per_segment = self.profile.stream_bytes_per_second * (
            1 + self.profile.params.overhead_ratio
        )
        if download_bytes_per_second < per_segment:
            return 0
        return min(
            self.lookahead, int(download_bytes_per_second / per_segment)
        )
