"""A functional network-coded streaming server on the simulated GPU.

Implements the Sec. 5.1.2 deployment: media segments are uploaded to
device memory (and preprocessed into the log domain once), then coded
blocks are generated on demand for downstream peers.  The server enforces
the device's segment-store capacity, tracks per-peer sessions, and
accounts the modelled GPU time spent encoding so tests and examples can
observe when the codec saturates.

Two serving paths coexist:

* :meth:`StreamingServer.serve` — the per-request path: one encode call
  per call, blocks returned as :class:`CodedBlock` objects.  Simple, and
  the baseline the round benchmark measures against.
* the batched pipeline — peers enqueue asks with
  :meth:`StreamingServer.request_blocks`; :meth:`StreamingServer.serve_round`
  drains the queue through a :class:`~repro.streaming.scheduler.ServeRoundScheduler`
  plan, coalescing every request against the same segment into a single
  engine-level batch encode (one coefficient draw, one bulk multiply,
  one cost-model charge), and packs the round straight onto the wire,
  one :func:`~repro.rlnc.wire.pack_blocks` call per granted segment:
  every peer gets a ``memoryview`` slice of one reused contiguous wire
  buffer.  Rounds are packed by :meth:`StreamingServer.serve_round_into`
  into *caller-allocated* storage — the hook the multiprocess cluster
  uses to land frames directly in a shared-memory ring.  Admission,
  the round body and eviction live once in :class:`EagerRounds`,
  which the recoding :class:`~repro.multicast.relay.RelayNode` shares:
  the two endpoints differ only in where a segment's rows come from.

The server implements the :class:`repro.serving.ServingEndpoint`
protocol, so anything written against the unified serving facade drives
a single node and a sharded :class:`~repro.cluster.ServingCluster`
interchangeably.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import CapacityError, ConfigurationError, RetryLater
from repro.gpu.spec import DeviceSpec
from repro.kernels.cost_model import EncodeScheme
from repro.kernels.encode import GpuEncoder
from repro.obs.stats import CumulativeStats
from repro.obs.trace import trace
from repro.rlnc.block import BlockBatch, CodedBlock, Segment
from repro.rlnc.wire import VERSION, VERSION2, frame_size, pack_blocks
from repro.streaming.capacity import segments_in_device_memory
from repro.streaming.scheduler import BlockRequest, ServeRoundScheduler
from repro.streaming.session import MediaProfile, PeerSession


@dataclass
class ServerStats(CumulativeStats):
    """Aggregate accounting for one server lifetime.

    Accumulation follows the same explicit cumulative contract as
    :class:`~repro.rlnc.wire.WireStats`: the server only ever *adds* to
    these counters.  Callers wanting per-round or per-phase figures take
    a :meth:`snapshot` before the phase and diff with :meth:`delta`, or
    :meth:`reset` between phases.
    """

    blocks_served: int = 0
    bytes_served: int = 0
    gpu_seconds: float = 0.0
    upload_seconds: float = 0.0
    rounds_served: int = 0
    encode_calls: int = 0
    requests_shed: int = 0
    retry_later_responses: int = 0
    sessions_evicted: int = 0

    @property
    def effective_bandwidth(self) -> float:
        """Served coded bytes per modelled GPU second."""
        if self.gpu_seconds == 0:
            return 0.0
        return self.bytes_served / self.gpu_seconds


def check_round_format(format: str) -> None:
    """Reject any round output format but wire frames.

    Raises:
        ConfigurationError: ``format`` is not ``"frames"``.
    """
    if format != "frames":
        raise ConfigurationError(
            f"unknown serve_round format {format!r}; expected 'frames'"
        )


class EagerRounds:
    """The one body of a synchronous serving endpoint.

    :class:`StreamingServer` and :class:`~repro.multicast.relay.RelayNode`
    differ only in where a segment's rows come from, so the rest lives
    here once: the peer sessions and the request queue, admission
    (:meth:`_admit`), the round body (:meth:`_round_emissions`), the wire
    output (:meth:`serve_round_into`, the packer, two alternating wire
    slots, ``begin_round`` / ``collect_round``) and :meth:`evict_segment`.
    An endpoint supplies three hooks:

    * ``_require_servable(segment_id)`` raises its
      :class:`~repro.errors.CapacityError` when it cannot serve the
      segment;
    * ``_emit(segment_id, total)`` returns a
      :class:`~repro.rlnc.block.BlockBatch` of ``total`` fresh coded
      rows — the server encodes its source blocks, a relay recodes the
      rows it holds;
    * ``_forget(segment_id)`` drops what it keeps of the segment;

    and ``profile``, ``worker_id`` (the v2 frame stamp) and ``stats``
    (with ``rounds_served`` and ``sessions_evicted``, and
    ``requests_shed`` and ``retry_later_responses`` if it sets
    ``max_pending_blocks``).

    A round runs inside ``begin_round`` and the ticket parks the result.
    Because the wire slots alternate, a pipelined driver can issue round
    ``r+1`` before round ``r``'s frames have been consumed, exactly as
    it drives a :class:`~repro.cluster.ServingCluster`.

    Args:
        per_peer_round_quota: most blocks one peer may be granted per
            round (``None`` = unbounded).
        max_pending_blocks: bound on the coded blocks the queue may
            hold (``None`` = unbounded); see :meth:`_admit`.
    """

    def __init__(
        self,
        *,
        per_peer_round_quota: int | None = None,
        max_pending_blocks: int | None = None,
    ) -> None:
        if max_pending_blocks is not None and max_pending_blocks < 1:
            raise ConfigurationError(
                f"max_pending_blocks must be >= 1, got {max_pending_blocks}"
            )
        self._max_pending_blocks = max_pending_blocks
        self._round_scheduler = ServeRoundScheduler(
            per_peer_quota=per_peer_round_quota
        )
        self._sessions: dict[int, PeerSession] = {}
        self._disconnected: set[int] = set()
        self._queue: deque[BlockRequest] = deque()
        self._wire_buffers = [bytearray(), bytearray()]
        self._wire_slot = 0
        self._wire_packed = memoryview(b"")

    def _check_geometry(self, segment: Segment) -> None:
        """Raise ConfigurationError unless ``segment`` has the profile's
        geometry (every ``publish`` checks this first)."""
        if segment.params != self.profile.params:
            raise ConfigurationError(
                f"segment geometry {segment.params} does not match profile "
                f"{self.profile.params}"
            )

    def connect(self, peer_id: int) -> PeerSession:
        """Register a peer session (idempotent; reconnect after eviction)."""
        if peer_id not in self._sessions:
            self._sessions[peer_id] = PeerSession(peer_id, self.profile)
            self._disconnected.discard(peer_id)
        return self._sessions[peer_id]

    def disconnect(self, peer_id: int) -> None:
        """Evict a peer session and drop its queued requests.

        Later requests from the evicted peer raise
        :class:`~repro.errors.CapacityError` (a clean transport-level
        rejection the retry loop can surface) rather than the
        :class:`~repro.errors.ConfigurationError` reserved for peers
        that never connected.  :meth:`connect` re-admits the peer with a
        fresh session.
        """
        if self._sessions.pop(peer_id, None) is None:
            raise ConfigurationError(f"peer {peer_id} is not connected")
        self._disconnected.add(peer_id)
        if self._queue:
            self._queue = deque(
                request
                for request in self._queue
                if request.peer_id != peer_id
            )
        self.stats.sessions_evicted += 1

    def _check_request(self, peer_id: int, num_blocks: int) -> None:
        """Reject an ask from an unknown or evicted peer, or for no blocks.

        Raises:
            CapacityError: the peer's session was evicted.
            ConfigurationError: unknown peers or non-positive counts.
        """
        if peer_id not in self._sessions:
            if peer_id in self._disconnected:
                raise CapacityError(
                    f"peer {peer_id} session was evicted; reconnect first"
                )
            raise ConfigurationError(f"peer {peer_id} is not connected")
        if num_blocks < 1:
            raise ConfigurationError("must request at least one block")

    def _admit(
        self, peer_id: int, segment_id: int, num_blocks: int
    ) -> RetryLater | None:
        """Admit a peer's ask into the queue (the ``request_blocks`` body).

        Requests carry a priority favouring nearly-complete sessions
        (the fewer blocks asked, the higher the priority), so NACK
        retransmissions are planned ahead of whole-segment bulk fetches.

        Load shedding: when ``max_pending_blocks`` is set and the queue
        cannot absorb the ask, the largest queued request is shed if it
        is larger than the ask and frees enough room (its blocks are
        refunded to its session; that peer re-requests); otherwise the
        ask is answered with a :class:`~repro.errors.RetryLater` hint.

        Raises:
            CapacityError: the endpoint cannot serve the segment, or the
                peer's session was evicted.
            ConfigurationError: unknown peers or non-positive counts.
        """
        self._check_request(peer_id, num_blocks)
        self._require_servable(segment_id)
        limit = self._max_pending_blocks
        overflow = 0 if limit is None else self.pending_blocks + num_blocks - limit
        if overflow > 0:
            victim = max(
                self._queue, key=lambda request: request.num_blocks, default=None
            )
            freed = 0 if victim is None else victim.num_blocks
            if num_blocks < freed and overflow <= freed:
                self._queue.remove(victim)
                self._refund(victim)
                self.stats.requests_shed += 1
            else:
                self.stats.retry_later_responses += 1
                return RetryLater(retry_after_rounds=max(1, -(-overflow // limit)))
        priority = max(0, self.profile.params.num_blocks - num_blocks)
        self._queue.append(
            BlockRequest(peer_id, segment_id, num_blocks, priority=priority)
        )
        self._sessions[peer_id].record_request(num_blocks)
        return None

    def _refund(self, request: BlockRequest) -> None:
        """Return a dropped request's blocks to its session's pending count."""
        session = self._sessions.get(request.peer_id)
        if session is not None:
            session.blocks_pending = max(
                0, session.blocks_pending - request.num_blocks
            )

    def evict_segment(self, segment_id: int) -> None:
        """Stop serving a segment: drop its queued asks, then forget it.

        Each dropped request's blocks are refunded to its session's
        pending count, so a client's NACK accounting does not wait on
        blocks that will never come, and later asks for the segment
        raise the endpoint's :class:`~repro.errors.CapacityError`.
        Other segments keep serving.
        """
        if self._queue:
            kept: deque[BlockRequest] = deque()
            for request in self._queue:
                if request.segment_id == segment_id:
                    self._refund(request)
                else:
                    kept.append(request)
            self._queue = kept
        self._forget(segment_id)

    @property
    def pending_requests(self) -> int:
        """Queued block requests awaiting the next serving round."""
        return len(self._queue)

    @property
    def pending_blocks(self) -> int:
        """Total coded blocks the queue is waiting on."""
        return sum(request.num_blocks for request in self._queue)

    def session_counters(self) -> dict[int, tuple[int, int, int]]:
        """Per-peer ``(requested, received, pending)`` block counters.

        The compact session summary a multiprocess cluster worker diffs
        into its replies, so the parent-side session mirrors (which the
        client NACK accounting reads) stay exact without shipping
        :class:`~repro.streaming.session.PeerSession` objects.
        """
        return {
            peer_id: (
                session.blocks_requested,
                session.blocks_received,
                session.blocks_pending,
            )
            for peer_id, session in self._sessions.items()
        }

    # -- the round ----------------------------------------------------------

    def _round_emissions(self) -> list[tuple[BlockBatch, list[tuple[int, int]]]]:
        """One scheduling round's emissions, each with its grants.

        Every grant against a segment shares one :meth:`_emit` call,
        whose rows are the segment's grants ``[(peer_id, count), ...]``
        in order.  A granted segment that is no longer servable raises
        before the queue changes.
        """
        if not self._queue:
            return []
        with trace("scheduler_plan"):
            plan = self._round_scheduler.plan_round(self._queue)
        for segment_id in plan.grants:
            self._require_servable(segment_id)
        self._queue = deque(plan.carryover)
        emissions = []
        served: set[int] = set()
        for segment_id, grants in plan.grants.items():
            batch = self._emit(segment_id, sum(count for _, count in grants))
            emissions.append((batch, grants))
            for peer_id, count in grants:
                self._sessions[peer_id].record_blocks(count)
                served.add(peer_id)
        for peer_id in served:
            self._sessions[peer_id].rounds_served += 1
        self.stats.rounds_served += 1
        return emissions

    def serve_round_into(
        self,
        alloc: Callable[[int], tuple[object, int]],
        *,
        checksum: bool = True,
        version: int = VERSION,
    ) -> dict[int, list[tuple[int, int]]]:
        """Serve one round packed into caller-allocated wire storage.

        ``serve_round`` allocates out of the endpoint's reused wire
        slots, a multiprocess cluster worker out of its shared-memory
        ring; either way :meth:`_pack_round` writes the frames in place.
        ``alloc`` and the returned spans are as in :meth:`_pack_round`.
        """
        with trace("serve_round"):
            return self._pack_round(
                self._round_emissions(), alloc, checksum=checksum, version=version
            )

    def _serve_frames(
        self, format: str, checksum: bool, version: int
    ) -> dict[int, memoryview]:
        """The ``serve_round`` body: one round into the next wire slot."""
        check_round_format(format)
        return self._slot_frames(
            self.serve_round_into(self._alloc_wire, checksum=checksum, version=version)
        )

    def begin_round(
        self,
        *,
        format: str = "frames",
        checksum: bool = True,
        version: int = VERSION,
    ) -> "EagerRoundTicket":
        """Pipelined serving entry: serve a round now, collect it later.

        Returns:
            An opaque ticket for :meth:`collect_round`.
        """
        return EagerRoundTicket(
            self.serve_round(format=format, checksum=checksum, version=version)
        )

    def collect_round(self, ticket: object) -> dict[int, memoryview]:
        """Barrier on a :meth:`begin_round` ticket; returns the round.

        Raises:
            ConfigurationError: the ticket is foreign or already
                collected.
        """
        if not isinstance(ticket, EagerRoundTicket):
            raise ConfigurationError(
                "collect_round needs the ticket returned by begin_round"
            )
        return ticket.take()

    def _alloc_wire(self, total: int) -> tuple[bytearray, int]:
        """The next of the two alternating wire slots, grown to ``total``.

        The slot packed last stays readable through :attr:`_wire_packed`
        until the round after next packs over it.
        """
        slot = self._wire_slot
        self._wire_slot = 1 - slot
        if len(self._wire_buffers[slot]) < total:
            self._wire_buffers[slot] = bytearray(total)
        self._wire_packed = memoryview(self._wire_buffers[slot])
        return self._wire_buffers[slot], 0

    def _pack_round(
        self,
        emissions: list[tuple[BlockBatch, list[tuple[int, int]]]],
        alloc: Callable[[int], tuple[object, int]],
        *,
        checksum: bool,
        version: int,
    ) -> dict[int, list[tuple[int, int]]]:
        """Pack a round's emissions into ``alloc``'s storage, peer-major.

        Each peer's frames are contiguous, in grant order across the
        round's segments, and each peer is placed where it is first
        granted.  Every granted segment is packed by *one*
        :func:`~repro.rlnc.wire.pack_blocks` call, which writes the
        segment's rows straight into their peers' places (the
        ``slots``), so the call count is the segment count, not the
        peer count.  Version-2 frames consume each session's monotonic
        :attr:`~repro.streaming.session.PeerSession.tx_sequence` in the
        peer's frame order and carry the endpoint's :attr:`worker_id`
        stamp; version-1 frames carry no sequence, so they leave
        ``tx_sequence`` where it was.

        Args:
            emissions: ``(batch, grants)`` per granted segment, the
                batch's rows being ``grants = [(peer_id, count), ...]``
                in order.
            alloc: called once per non-empty round with the round's
                total wire size; must return ``(buffer, offset)`` — any
                writable buffer and the position to start packing at.
            checksum: whether frames carry integrity trailers.
            version: wire format version.

        Returns:
            ``peer_id -> [(offset, length), ...]`` spans into the
            allocated buffer, one per grant; a peer's spans are
            contiguous and in grant order.  Empty dict for an empty
            round.
        """
        if not emissions:
            return {}
        params = self.profile.params
        size = frame_size(
            params.num_blocks, params.block_size, checksum=checksum, version=version
        )
        # Each peer's first frame: peers in order of first grant.
        place: dict[int, int] = {}
        for _, grants in emissions:
            for peer_id, count in grants:
                place[peer_id] = place.get(peer_id, 0) + count
        frames = 0
        for peer_id, count in place.items():
            place[peer_id], frames = frames, frames + count
        buffer, offset = alloc(frames * size)
        view = memoryview(buffer)
        sequenced = version == VERSION2
        stamp = self.worker_id if sequenced else None
        # Each peer's next slot; a peer's frame in slot ``f`` carries
        # sequence number ``shift[peer] + f``, continuing its session's.
        cursor = dict(place)
        shift = {
            peer_id: self._sessions[peer_id].tx_sequence - first
            for peer_id, first in place.items()
        }
        spans: dict[int, list[tuple[int, int]]] = {peer_id: [] for peer_id in place}
        with trace("wire_pack"):
            for batch, grants in emissions:
                slots: list[int] = []
                numbers: list[int] = []
                for peer_id, count in grants:
                    at = cursor[peer_id]
                    cursor[peer_id] = at + count
                    spans[peer_id].append((offset + at * size, count * size))
                    slots.extend(range(at, at + count))
                    if sequenced:
                        base = shift[peer_id] + at
                        numbers.extend(range(base, base + count))
                first = slots[0]
                consecutive = slots == list(range(first, first + len(slots)))
                pack_blocks(
                    batch,
                    checksum=checksum,
                    out=view,
                    offset=offset + first * size if consecutive else offset,
                    version=version,
                    sequences=np.array(numbers, dtype=np.uint64) if sequenced else None,
                    slots=None if consecutive else np.array(slots, dtype=np.intp),
                    worker_id=stamp,
                )
        if sequenced:
            for peer_id, first in place.items():
                self._sessions[peer_id].tx_sequence += cursor[peer_id] - first
        return spans

    def _slot_frames(
        self, spans: dict[int, list[tuple[int, int]]]
    ) -> dict[int, memoryview]:
        """Each peer's frames as one ``memoryview`` slice of the slot
        :meth:`_alloc_wire` handed out last."""
        return {
            peer_id: self._wire_packed[
                peer_spans[0][0] : peer_spans[-1][0] + peer_spans[-1][1]
            ]
            for peer_id, peer_spans in spans.items()
        }


class EagerRoundTicket:
    """A begin_round result computed eagerly, awaiting collection.

    :class:`EagerRounds` endpoints (:class:`StreamingServer` and relays)
    run a round synchronously inside ``begin_round`` and park the
    result here; ``collect_round`` hands it over exactly once.
    """

    __slots__ = ("_result", "_taken")

    def __init__(self, result: dict) -> None:
        self._result = result
        self._taken = False

    def take(self) -> dict:
        if self._taken:
            raise ConfigurationError("round ticket was already collected")
        self._taken = True
        return self._result


class StreamingServer(EagerRounds):
    """Serves network-coded media segments to downstream peers.

    An :class:`EagerRounds` endpoint whose rows are fresh encodes of the
    device-resident source blocks.

    Args:
        spec: GPU the server runs on.
        profile: media/coding configuration.
        scheme: encoding kernel (TABLE_5 by default — the paper's best).
        rng: randomness source for coding coefficients.
        per_peer_round_quota: most blocks one peer may receive per
            serving round (``None`` = unbounded); see
            :class:`~repro.streaming.scheduler.ServeRoundScheduler`.
        max_pending_blocks: bound on the total coded blocks the request
            queue may hold (``None`` = unbounded).  When full, a small
            ask may shed the largest queued request (priority to
            nearly-complete sessions); otherwise the server answers with
            :class:`~repro.errors.RetryLater` instead of queueing.
        worker_id: when the server runs as one worker of a sharded
            cluster, its cluster-assigned id; version-2 frames it packs
            are stamped with it (see
            :func:`~repro.rlnc.wire.frame_worker_id`).  ``None`` (the
            single-node default) leaves frames unstamped and
            byte-identical to previous releases.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        profile: MediaProfile,
        *,
        scheme: EncodeScheme = EncodeScheme.TABLE_5,
        rng: np.random.Generator | None = None,
        per_peer_round_quota: int | None = None,
        max_pending_blocks: int | None = None,
        worker_id: int | None = None,
    ) -> None:
        super().__init__(
            per_peer_round_quota=per_peer_round_quota,
            max_pending_blocks=max_pending_blocks,
        )
        self.spec = spec
        self.profile = profile
        self.worker_id = worker_id
        self._eviction_listeners: list[Callable[[int], None]] = []
        self._encoder = GpuEncoder(spec, scheme)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._segments: dict[int, Segment] = {}
        self._capacity = segments_in_device_memory(spec, profile)
        self.stats = ServerStats()

    @property
    def stored_segments(self) -> int:
        return len(self._segments)

    @property
    def segment_capacity(self) -> int:
        return self._capacity

    def stats_snapshot(self) -> dict:
        """A JSON-able snapshot of this server's serving counters.

        Shaped like a :meth:`repro.obs.MetricsRegistry.snapshot`, so
        per-worker snapshots fold into a cluster rollup with
        :func:`repro.obs.merge_snapshots` (a worker process ships this
        dict over its pipe).  Every :class:`ServerStats` field is a
        ``server_*`` counter (:meth:`~repro.obs.stats.CumulativeStats.series`);
        point-in-time occupancy lands under ``gauges``.
        """
        snapshot = self.stats.series("server")
        snapshot["gauges"].update(
            server_queue_blocks=float(self.pending_blocks),
            server_queue_depth=float(len(self._queue)),
            server_segments_stored=float(len(self._segments)),
        )
        return snapshot

    def publish_segment(self, segment: Segment) -> None:
        """Upload one media segment to the device-resident store.

        Runs the one-time log-domain preprocessing so later requests only
        pay the Fig. 5 fast path.

        Raises:
            ConfigurationError: on geometry mismatch.
            CapacityError: if the device segment store is full.
        """
        self._check_geometry(segment)
        if segment.segment_id not in self._segments and (
            len(self._segments) >= self._capacity
        ):
            raise CapacityError(
                f"device segment store full ({self._capacity} segments)"
            )
        self._segments[segment.segment_id] = segment
        self.stats.upload_seconds += self._encoder.upload_segment(segment)

    def publish(self, segment: Segment) -> None:
        """Upload a segment (the :class:`~repro.serving.ServingEndpoint`
        spelling of :meth:`publish_segment`)."""
        self.publish_segment(segment)

    def add_eviction_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback fired with the segment id on every eviction.

        A cluster router subscribes here so a worker-local
        :meth:`evict_segment` (e.g. the live window sliding past a
        segment) immediately stops the cluster ring from advertising the
        segment — without the hook, queued cluster requests for the
        evicted segment would strand and new asks would keep routing to
        a worker that no longer holds the data.
        """
        self._eviction_listeners.append(listener)

    # -- the three EagerRounds hooks ----------------------------------------

    def _require_servable(self, segment_id: int) -> Segment:
        """The device-resident segment; CapacityError when it is not."""
        segment = self._segments.get(segment_id)
        if segment is None:
            raise CapacityError(f"segment {segment_id} is not on the device")
        return segment

    def _emit(self, segment_id: int, total: int) -> BlockBatch:
        """``total`` fresh encodes of a segment: one coefficient draw,
        one bulk multiply, one cost-model charge."""
        result = self._encoder.encode(self._segments[segment_id], total, self._rng)
        self.stats.encode_calls += 1
        self.stats.blocks_served += total
        self.stats.bytes_served += result.coded_bytes
        self.stats.gpu_seconds += result.time_seconds
        return BlockBatch(
            coefficients=result.coefficients,
            payloads=result.payloads,
            segment_id=segment_id,
        )

    def _forget(self, segment_id: int) -> None:
        """Drop a segment from the device store and the encoder's
        uploaded set, then notify every eviction listener — how a
        cluster router learns to withdraw it from its placement ring."""
        evicted = self._segments.pop(segment_id, None)
        self._encoder.drop_segment(segment_id)
        if evicted is not None:
            for listener in self._eviction_listeners:
                listener(segment_id)

    # -- serving ------------------------------------------------------------

    def serve(
        self, peer_id: int, segment_id: int, num_blocks: int
    ) -> list[CodedBlock]:
        """Generate ``num_blocks`` fresh coded blocks of one segment.

        The per-request path (and the round benchmark's baseline): one
        encode call per invocation, no cross-peer coalescing.

        Raises:
            CapacityError: if the segment is not resident on the device.
            ConfigurationError: for unknown peers or non-positive counts.
        """
        self._check_request(peer_id, num_blocks)
        self._require_servable(segment_id)
        batch = self._emit(segment_id, num_blocks)
        self._sessions[peer_id].record_blocks(num_blocks)
        return batch.rows()

    def request_blocks(
        self, peer_id: int, segment_id: int, num_blocks: int
    ) -> RetryLater | None:
        """Enqueue a peer's ask for coded blocks (drained by rounds).

        Admission is :meth:`EagerRounds._admit`: nearly-complete
        sessions first; with ``max_pending_blocks`` set, an overflowing
        ask sheds the largest queued request or returns
        :class:`~repro.errors.RetryLater`.  Raises
        :class:`~repro.errors.CapacityError` when the segment is not on
        the device or the peer's session was evicted.
        """
        return self._admit(peer_id, segment_id, num_blocks)

    def serve_round(
        self,
        *,
        format: str = "frames",
        checksum: bool = True,
        version: int = VERSION,
    ) -> dict[int, memoryview]:
        """Drain one scheduling round of the request queue onto the wire.

        All pending requests against the same segment coalesce into a
        single engine-level batch encode; every peer gets one
        ``memoryview`` slice of the server's reused wire storage, valid
        for two rounds (consume or copy it before then).  Requests
        beyond a peer's round quota stay queued for the next round.

        Args:
            format: the round output; only ``"frames"`` is served.
            checksum: whether frames carry integrity trailers.
            version: wire format version.  ``version=2`` frames carry
                digest trailers, per-session sequence numbers (from
                :attr:`~repro.streaming.session.PeerSession.tx_sequence`)
                and the :attr:`worker_id` stamp, if any.

        Returns:
            ``peer_id -> memoryview`` of the peer's frames (empty dict
            when the queue is empty).
        """
        return self._serve_frames(format, checksum, version)
