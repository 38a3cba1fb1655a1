"""A sharded serving cluster of simulated-GPU streaming workers.

Scale-out past a single :class:`~repro.streaming.server.StreamingServer`:
``N`` workers each own a simulated GPU, segments shard across them via
the consistent-hash :class:`~repro.cluster.ring.HashRing`, and the
:class:`~repro.cluster.router.ClusterRouter` sends every block request
to the segment's owner.  The cluster implements the same
:class:`~repro.serving.ServingEndpoint` surface as a single server, so
:class:`~repro.streaming.client.ClientSession` and the round driver
(:func:`~repro.streaming.rounds.drive`, behind ``drive_sessions``)
drive either unchanged.

Execution model — one round path, two interchangeable worker handles:

* ``parallel=False`` (default): every worker is an in-process
  :class:`~repro.cluster.worker.LocalWorker`, a
  :class:`~repro.streaming.server.StreamingServer` that serves each
  round inside ``start_round``.  Deterministic and dependency free.
  Real *threads* would add nothing here — the arithmetic below the
  cost model is NumPy fancy-indexing that serializes on the GIL —
  which is exactly why scale-out needs processes.
* ``parallel=True``: every worker is a
  :class:`~repro.cluster.worker.WorkerProcess` — a separate OS process
  hosting the same ``LocalWorker`` (same ``default_rng([seed, w])``
  stream, same ``worker_id`` stamp), with block payloads crossing the
  boundary through :class:`~repro.cluster.shm.BlockRing` shared memory
  and only control messages on the command pipes.  Parallel clusters
  own OS resources: :meth:`close` them (or use the cluster as a
  context manager).

Both handles speak one protocol (``start_round`` / ``finish_round`` /
``view``), and both serve a round through the same
:meth:`~repro.cluster.worker.LocalWorker.serve_round_spans`.
:meth:`ServingCluster.begin_round` fires every live worker's round,
:meth:`ServingCluster.collect_round` barriers and merges in ascending
worker order, and :meth:`ServingCluster.serve_round` is the two back to
back — so the output is byte-identical across substrates by
construction, while the parallel encodes run on real cores.

Timeline model: the workers are *separate simulated devices*, so a
cluster round's modelled cost is the **critical path** — the maximum of
the per-worker modelled GPU time spent that round — while the serial
cost (what one device would have paid) is the sum.  Both accumulate in
:class:`ClusterStats`; their ratio is the cluster's modelled scale-out
speedup.  The ``cluster_scaleout`` benchmark pins the modelled ratio at
>= 1.6x at 4 workers and, on hosts with enough cores, the *measured*
wall-clock speedup of the parallel substrate at >= 1.5x.

Failure model: :meth:`ServingCluster.kill_worker` drops a worker
mid-flight — in parallel mode by SIGKILLing the actual process.  The
router rebalances exactly that worker's segments onto survivors
(re-published from the cluster's origin copies — the durable store a
real deployment would read from), the dead worker's per-peer pending
counts vanish from every :class:`ClusterPeerView`, and each client's
NACK path re-requests precisely its missing rank from the new owners.
Decoder state is client-side, so no session loses rank.

Self-healing: constructed with ``supervision=SupervisorConfig(...)``
(parallel mode only), a :class:`~repro.cluster.supervisor
.WorkerSupervisor` watches the workers — deadlines on every command,
liveness probes, slow-round strikes — and heals *unrequested* failures
automatically: SIGKILL plus restart under exponential backoff,
republish from origin copies, peers reconnected, serve rounds
completing **degraded** on the survivors meanwhile.  Requests routed to
a down-but-still-placed worker answer :class:`~repro.errors.RetryLater`
(never a raw crash error — the ordinary load-shedding response the
client retry loop already paces itself against), and a worker that
exhausts its restart budget trips the circuit breaker: permanent
eviction through the same rebalance path as :meth:`ServingCluster
.kill_worker`.  ``chaos=ChaosPlan(...)`` arms seeded process-level
faults (crash / hang / slow replies / dropped process) so the soak
tests can drive all of the above deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import SupervisorConfig, WorkerSupervisor
from repro.cluster.worker import LocalWorker, WorkerBootstrap, WorkerProcess
from repro.errors import (
    CapacityError,
    ConfigurationError,
    RetryLater,
    WorkerCrashError,
)
from repro.faults import ChaosPlan
from repro.gpu.spec import DeviceSpec
from repro.kernels.cost_model import EncodeScheme
from repro.obs.registry import merge_snapshots
from repro.obs.stats import CumulativeStats
from repro.rlnc.block import Segment
from repro.rlnc.wire import MAX_WORKER_ID, VERSION
from repro.streaming.server import check_round_format
from repro.streaming.session import MediaProfile, PeerSession


@dataclass
class ClusterStats(CumulativeStats):
    """Aggregate accounting for one cluster lifetime.

    Follows the explicit cumulative contract shared by
    :class:`~repro.rlnc.wire.WireStats`,
    :class:`~repro.streaming.server.ServerStats` and
    :class:`~repro.streaming.client.SessionStats`: counters only grow;
    use :meth:`snapshot`/:meth:`delta` for per-phase figures or
    :meth:`reset` between phases.

    Attributes:
        gpu_parallel_seconds: modelled wall time on the cluster's
            parallel timeline — per round, the *maximum* of the
            per-worker modelled GPU deltas (critical path).
        gpu_serial_seconds: the same work priced on one device — per
            round, the *sum* of the per-worker deltas.
    """

    rounds_served: int = 0
    blocks_served: int = 0
    segments_published: int = 0
    segments_rebalanced: int = 0
    segments_withdrawn: int = 0
    workers_killed: int = 0
    workers_added: int = 0
    workers_removed: int = 0
    retry_later_responses: int = 0
    gpu_parallel_seconds: float = 0.0
    gpu_serial_seconds: float = 0.0

    @property
    def model_speedup(self) -> float:
        """Serial over parallel modelled GPU time (1.0 before any work)."""
        if self.gpu_parallel_seconds == 0.0:
            return 1.0
        return self.gpu_serial_seconds / self.gpu_parallel_seconds


class ClusterPeerView:
    """One peer's aggregate session state across live workers.

    What :meth:`ServingCluster.connect` returns — the cluster-side
    analogue of :class:`~repro.streaming.session.PeerSession`, summing
    the per-worker sessions so the client's NACK accounting (which
    watches :attr:`blocks_pending`) sees cluster-wide truth.  When a
    worker dies, its session drops out of the view and its pending
    blocks vanish — exactly the signal that makes the client re-request
    the missing rank from the surviving owners.
    """

    def __init__(self, peer_id: int) -> None:
        self.peer_id = peer_id
        self._sessions: dict[int, PeerSession] = {}

    def _attach(self, worker_id: int, session: PeerSession) -> None:
        self._sessions[worker_id] = session

    def _detach(self, worker_id: int) -> None:
        self._sessions.pop(worker_id, None)

    @property
    def blocks_pending(self) -> int:
        """Blocks asked for but not yet served, over live workers."""
        return sum(s.blocks_pending for s in self._sessions.values())

    @property
    def blocks_requested(self) -> int:
        return sum(s.blocks_requested for s in self._sessions.values())

    @property
    def blocks_received(self) -> int:
        return sum(s.blocks_received for s in self._sessions.values())


def _labeled(snapshot: dict, worker_id: int) -> dict:
    """Re-key a worker snapshot with a ``worker`` label per series."""
    label = f'{{worker="{worker_id}"}}'
    return {
        section: {f"{name}{label}": value for name, value in series.items()}
        for section, series in snapshot.items()
    }


class ServingCluster:
    """N sharded streaming workers behind one serving endpoint.

    Args:
        spec: the GPU each worker runs on (one device per worker).
        profile: media/coding configuration, shared by all workers.
        num_workers: cluster size (1..127 — worker ids must fit the
            v2 wire stamp, see :data:`~repro.rlnc.wire.MAX_WORKER_ID`).
        scheme: encoding kernel for every worker.
        seed: seeds the placement ring and each worker's coefficient
            rng (worker ``w`` draws from ``default_rng([seed, w])``),
            so a cluster run is exactly reproducible.
        vnodes_per_worker: ring smoothing factor.
        per_peer_round_quota: forwarded to each worker's round
            scheduler.
        max_pending_blocks: per-worker admission bound (forwarded).
        max_cluster_pending_blocks: cluster-wide admission bound across
            all worker queues; asks beyond it get
            :class:`~repro.errors.RetryLater` before touching a worker.
        parallel: True runs every worker as its own OS process with
            shared-memory block buffers (see the module docstring);
            False (default) keeps the in-process substrate.  Both
            produce byte-identical output for the same seed.
        start_method: parallel only — multiprocessing start method
            override (default: ``REPRO_MP_START_METHOD`` env var, else
            fork where available).
        supervision: parallel only — arm a
            :class:`~repro.cluster.supervisor.WorkerSupervisor` with
            these thresholds (deadlines, heartbeats, restart budget);
            crashes and hangs then heal automatically instead of
            raising out of :meth:`serve_round`.
        chaos: parallel only — a seeded
            :class:`~repro.faults.ChaosPlan`; each victim worker is
            spawned carrying its scheduled process-level fault.
            Supervisor restarts spawn replacements *without* the fault,
            so healed victims come back healthy.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        profile: MediaProfile,
        *,
        num_workers: int = 4,
        scheme: EncodeScheme = EncodeScheme.TABLE_5,
        seed: int = 0,
        vnodes_per_worker: int = DEFAULT_VNODES,
        per_peer_round_quota: int | None = None,
        max_pending_blocks: int | None = None,
        max_cluster_pending_blocks: int | None = None,
        parallel: bool = False,
        start_method: str | None = None,
        supervision: SupervisorConfig | None = None,
        chaos: ChaosPlan | None = None,
    ) -> None:
        if not 1 <= num_workers <= MAX_WORKER_ID + 1:
            raise ConfigurationError(
                f"num_workers must be in [1, {MAX_WORKER_ID + 1}], "
                f"got {num_workers}"
            )
        if (
            max_cluster_pending_blocks is not None
            and max_cluster_pending_blocks < 1
        ):
            raise ConfigurationError(
                "max_cluster_pending_blocks must be >= 1, "
                f"got {max_cluster_pending_blocks}"
            )
        if not parallel and (supervision is not None or chaos is not None):
            raise ConfigurationError(
                "supervision and chaos require parallel=True: an "
                "in-process worker cannot crash or hang independently "
                "of its caller"
            )
        if chaos is not None and chaos.num_workers != num_workers:
            raise ConfigurationError(
                f"chaos plan was drawn for {chaos.num_workers} workers "
                f"but the cluster has {num_workers}"
            )
        self.spec = spec
        self.profile = profile
        self.seed = seed
        self.parallel = parallel
        self.chaos = chaos
        self._closed = False
        self._max_cluster_pending_blocks = max_cluster_pending_blocks
        self._scheme = scheme
        self._per_peer_round_quota = per_peer_round_quota
        self._max_pending_blocks = max_pending_blocks
        self._start_method = start_method
        self._workers: dict[int, LocalWorker | WorkerProcess] = {}
        try:
            for worker_id in range(num_workers):
                self._workers[worker_id] = self._spawn_worker(
                    worker_id,
                    chaos=chaos.spec_for(worker_id) if chaos else None,
                )
        except Exception:
            for worker in self._workers.values():
                worker.shutdown()
            raise
        self._router = ClusterRouter(
            HashRing(seed=seed, vnodes=vnodes_per_worker),
            range(num_workers),
        )
        #: Durable origin copies, the source of truth a rebalance
        #: re-publishes from (a real deployment's backing store).
        self._origin: dict[int, Segment] = {}
        self._peers: dict[int, ClusterPeerView] = {}
        self._disconnected: set[int] = set()
        self.stats = ClusterStats()
        self.supervisor: WorkerSupervisor | None = (
            WorkerSupervisor(self, supervision)
            if supervision is not None
            else None
        )

    def _spawn_worker(
        self, worker_id: int, chaos=None
    ) -> LocalWorker | WorkerProcess:
        """Build one worker (initial spawn and supervisor restarts).

        Restarts call this with ``chaos=None`` — a healed victim comes
        back without its scheduled fault — and always get the same
        deterministic server the first spawn got: worker ``w`` draws
        coefficients from ``default_rng([seed, w])`` regardless of how
        many times it has been respawned, and the rateless code makes
        the decoded output identical either way.
        """
        if self.parallel:
            worker: LocalWorker | WorkerProcess = WorkerProcess(
                worker_id,
                self.spec,
                self.profile,
                scheme=self._scheme,
                seed=self.seed,
                per_peer_round_quota=self._per_peer_round_quota,
                max_pending_blocks=self._max_pending_blocks,
                start_method=self._start_method,
                chaos=chaos,
            )
        else:
            worker = LocalWorker(
                WorkerBootstrap(
                    worker_id,
                    self.spec,
                    self.profile,
                    self._scheme,
                    self.seed,
                    self._per_peer_round_quota,
                    self._max_pending_blocks,
                )
            )
        worker.add_eviction_listener(
            lambda segment_id, wid=worker_id: self._on_worker_eviction(
                wid, segment_id
            )
        )
        return worker

    def _is_down(self, worker_id: int) -> bool:
        """True while a supervised worker is torn down awaiting restart."""
        return self.supervisor is not None and self.supervisor.is_down(
            worker_id
        )

    # -- topology ----------------------------------------------------------

    @property
    def live_workers(self) -> tuple[int, ...]:
        """Ids of workers still serving, ascending."""
        return self._router.live_workers

    @property
    def num_workers(self) -> int:
        return len(self._router.live_workers)

    def worker(self, worker_id: int) -> LocalWorker | WorkerProcess:
        """A live worker's handle by id (raises if dead/unknown).

        In-process clusters return the worker's
        :class:`~repro.cluster.worker.LocalWorker` (its
        :class:`~repro.streaming.server.StreamingServer`); parallel
        clusters return its
        :class:`~repro.cluster.worker.WorkerProcess` handle.
        """
        if worker_id not in self._router.ring:
            raise ConfigurationError(f"worker {worker_id} is not live")
        return self._workers[worker_id]

    def placement(self) -> dict[int, int]:
        """A copy of the ``segment_id -> worker_id`` placement map."""
        return self._router.placement()

    @property
    def stored_segments(self) -> int:
        return self._router.advertised_segments

    @property
    def pending_blocks(self) -> int:
        """Coded blocks queued across every live worker."""
        return sum(
            self._workers[wid].pending_blocks for wid in self.live_workers
        )

    # -- the ServingEndpoint surface ---------------------------------------

    def publish(self, segment: Segment) -> None:
        """Place a segment on the ring and upload it to its owner.

        Keeps an origin copy so a later rebalance can re-publish the
        segment to a surviving worker.

        Supervised clusters accept publishes while the owning worker is
        down: the segment stays advertised and the origin copy is
        stored, and the restart republishes everything the ring maps to
        the worker — so an outage window never loses a publish.

        Raises:
            ConfigurationError: on geometry mismatch or double publish.
            CapacityError: if the owning worker's segment store is full.
        """
        worker_id = self._router.advertise(segment.segment_id)
        if not self._is_down(worker_id):
            try:
                self._workers[worker_id].publish(segment)
            except WorkerCrashError as exc:
                if self.supervisor is None:
                    self._router.withdraw(segment.segment_id)
                    raise
                # Undetected death surfacing through the publish path:
                # tear the worker down and keep the segment advertised —
                # the restart republishes it from the origin copy below.
                self.supervisor.note_failure(worker_id, exc, phase="publish")
            except Exception:
                self._router.withdraw(segment.segment_id)
                raise
        self._origin[segment.segment_id] = segment
        self.stats.segments_published += 1

    def publish_segment(self, segment: Segment) -> None:
        """Alias for :meth:`publish` (single-server spelling)."""
        self.publish(segment)

    def connect(self, peer_id: int) -> ClusterPeerView:
        """Register a peer on every live worker (idempotent)."""
        view = self._peers.get(peer_id)
        if view is None:
            view = ClusterPeerView(peer_id)
            self._peers[peer_id] = view
        self._disconnected.discard(peer_id)
        for worker_id in self.live_workers:
            if self._is_down(worker_id):
                continue  # the restart path reconnects every known peer
            try:
                view._attach(
                    worker_id, self._workers[worker_id].connect(peer_id)
                )
            except WorkerCrashError as exc:
                if self.supervisor is None:
                    raise
                self.supervisor.note_failure(worker_id, exc, phase="connect")
        return view

    def disconnect(self, peer_id: int) -> None:
        """Evict a peer from every live worker.

        Matches the single-server contract: the evicted peer's next ask
        raises :class:`~repro.errors.CapacityError` (clean rejection the
        retry loop can surface); :meth:`connect` re-admits it.

        Raises:
            ConfigurationError: if the peer never connected.
        """
        view = self._peers.pop(peer_id, None)
        if view is None:
            raise ConfigurationError(f"peer {peer_id} is not connected")
        self._disconnected.add(peer_id)
        for worker_id in self.live_workers:
            if self._is_down(worker_id):
                # The dead process took the session with it; the restart
                # only reconnects peers still in the registry, and this
                # one is leaving it — nothing worker-side to evict.
                continue
            try:
                self._workers[worker_id].disconnect(peer_id)
            except WorkerCrashError as exc:
                if self.supervisor is None:
                    raise
                self.supervisor.note_failure(
                    worker_id, exc, phase="disconnect"
                )

    def request_blocks(
        self, peer_id: int, segment_id: int, num_blocks: int
    ) -> RetryLater | None:
        """Route a peer's ask to the segment's owning worker.

        Cluster-level admission runs first: when the sum of all live
        workers' queues cannot absorb the ask, the cluster answers
        :class:`~repro.errors.RetryLater` without touching a worker.
        Worker-level shed/``RetryLater`` (per-worker bounds) propagates
        unchanged.

        Supervised clusters never surface a raw crash here: an ask
        routed to a worker that is down-but-still-placed (the window
        between teardown and restart) answers
        :class:`~repro.errors.RetryLater` — the same pacing response an
        overloaded worker sends — and the client retry loop comes back
        after the restart.  An *undetected* death surfacing through
        this path is detected now and answered the same way.

        Raises:
            CapacityError: if the segment is not placed on the cluster,
                or the owner rejects (e.g. evicted session).
            ConfigurationError: for unknown peers or bad counts.
        """
        if peer_id not in self._peers:
            if peer_id in self._disconnected:
                raise CapacityError(
                    f"peer {peer_id} session was evicted; reconnect first"
                )
            raise ConfigurationError(f"peer {peer_id} is not connected")
        limit = self._max_cluster_pending_blocks
        if limit is not None and self.pending_blocks + num_blocks > limit:
            self.stats.retry_later_responses += 1
            overflow = self.pending_blocks + num_blocks - limit
            return RetryLater(retry_after_rounds=max(1, -(-overflow // limit)))
        worker_id = self._router.worker_for(segment_id)
        if self._is_down(worker_id):
            return self._stale_route_response()
        try:
            response = self._workers[worker_id].request_blocks(
                peer_id, segment_id, num_blocks
            )
        except WorkerCrashError as exc:
            if self.supervisor is None:
                raise
            self.supervisor.note_failure(worker_id, exc, phase="request")
            return self._stale_route_response()
        if isinstance(response, RetryLater):
            self.stats.retry_later_responses += 1
        return response

    def _stale_route_response(self) -> RetryLater:
        """The answer for an ask routed to a down-but-placed worker."""
        self.supervisor.note_stale_route()
        self.stats.retry_later_responses += 1
        return RetryLater(retry_after_rounds=1)

    def serve_round(
        self,
        *,
        format: str = "frames",
        checksum: bool = True,
        version: int = VERSION,
    ) -> dict[int, memoryview | bytes]:
        """Drain one scheduling round on every live worker.

        Workers run their rounds independently (separate simulated
        devices, and in parallel mode separate OS processes); results
        merge per peer in ascending worker order, so a given cluster
        state always yields the same delivery on either substrate.  The
        round's modelled cost on the parallel timeline is the largest
        per-worker GPU delta (critical path); the serial price is the
        sum — both accumulate in :attr:`stats`.

        Args:
            format: the round output; only ``"frames"`` is served.
            checksum: whether frames carry integrity trailers.
            version: wire version; ``version=2`` frames carry each
                worker's id stamp (see
                :func:`~repro.rlnc.wire.frame_worker_id`).

        Returns:
            ``peer_id ->`` the peer's frames: a worker's own slice when
            one worker served the peer (zero-copy, valid until that
            worker's next round), else the concatenated bytes.

        Raises:
            ConfigurationError: on any ``format`` but ``"frames"``.
        """
        return self.collect_round(
            self.begin_round(format=format, checksum=checksum, version=version)
        )

    def begin_round(
        self,
        *,
        format: str = "frames",
        checksum: bool = True,
        version: int = VERSION,
    ) -> "_RoundTicket":
        """Pipelined serving entry: dispatch a round, barrier on it later.

        Fires ``start_round`` at every live worker handle before any
        reply is awaited.  A worker process returns at once, so the
        per-worker encodes overlap with whatever the caller does next
        (publishing the previous round's frames, feeding decoders); an
        in-process :class:`~repro.cluster.worker.LocalWorker` serves its
        round inside the call.  Both pack the round's frames into
        worker-owned storage (the shared-memory ring, or the worker's
        wire slots) and :meth:`collect_round` merges the spans.

        Under supervision the round is additionally self-healing: the
        supervisor ticks first (restarting workers whose backoff
        elapsed, probing silent ones) and down workers are skipped.

        At most one round may be in flight per worker (the
        shared-memory ring is bump-allocated per round), so a second
        ``begin_round`` before ``collect_round`` raises
        :class:`~repro.errors.ConfigurationError` worker-side.

        Returns:
            An opaque ticket for :meth:`collect_round`.

        Raises:
            ConfigurationError: on any ``format`` but ``"frames"``.
        """
        check_round_format(format)
        supervisor = self.supervisor
        down: frozenset[int] = frozenset()
        if supervisor is not None:
            supervisor.tick()
            down = frozenset(supervisor.down_workers)
        ticket = _RoundTicket(down)
        for wid in self.live_workers:
            if wid in down:
                continue
            worker = self._workers[wid]
            try:
                worker.start_round(checksum=checksum, version=version)
            except WorkerCrashError as exc:
                if supervisor is None:
                    raise
                supervisor.note_failure(wid, exc, phase="dispatch")
                ticket.failed += 1
                continue
            ticket.dispatched.append((wid, worker, time.monotonic()))
        return ticket

    def collect_round(self, ticket: object) -> dict[int, memoryview | bytes]:
        """Barrier on a :meth:`begin_round` ticket and merge the round.

        Replies are collected in ascending worker order, which makes
        the merge deterministic and the same on both substrates.  Under
        supervision every ``finish_round`` carries the configured round
        deadline, and a worker that crashes or hangs mid-round is
        detected and torn down while the merge completes **degraded**
        on the survivors — the barrier never blocks on a dead pipe.

        Frames are views into worker-owned storage, valid until that
        worker's *next* round — a pipelined driver copies them out
        here, before beginning the following round.

        Raises:
            ConfigurationError: the ticket is foreign or already
                collected.
        """
        if not isinstance(ticket, _RoundTicket):
            raise ConfigurationError(
                "collect_round needs the ticket returned by begin_round"
            )
        if ticket.taken:
            raise ConfigurationError("round ticket was already collected")
        ticket.taken = True
        supervisor = self.supervisor
        failed = ticket.failed
        merged: dict[int, list[memoryview]] = {}
        parallel = serial = 0.0
        blocks = 0
        for wid, worker, sent_at in ticket.dispatched:
            try:
                if supervisor is None:
                    spans, delta = worker.finish_round()
                else:
                    spans, delta = worker.finish_round(
                        timeout=supervisor.config.round_timeout
                    )
            except WorkerCrashError as exc:
                if supervisor is None:
                    raise
                supervisor.note_failure(wid, exc, phase="round")
                failed += 1
                continue
            gpu = delta["gpu_seconds"]
            parallel = max(parallel, gpu)
            serial += gpu
            blocks += int(delta["blocks_served"])
            for peer_id, peer_spans in spans.items():
                start = peer_spans[0][0]
                end = peer_spans[-1][0] + peer_spans[-1][1]
                merged.setdefault(peer_id, []).append(worker.view(start, end - start))
            if supervisor is not None:
                # Strike on the worker's own wall clock (barrier wait on
                # an earlier sibling must not be charged to this worker),
                # and only after the merge: a slow-strike eviction here
                # closes the ring, and the exported views above pin the
                # mapping so this round's payloads stay valid.
                wall = delta.get("round_wall_seconds")
                supervisor.note_round(
                    wid,
                    time.monotonic() - sent_at if wall is None else wall,
                )
        if merged:
            self.stats.rounds_served += 1
            self.stats.blocks_served += blocks
            self.stats.gpu_parallel_seconds += parallel
            self.stats.gpu_serial_seconds += serial
            if supervisor is not None and (failed or ticket.down):
                supervisor.note_degraded_round()
        return {
            peer_id: parts[0] if len(parts) == 1 else b"".join(parts)
            for peer_id, parts in merged.items()
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop worker processes and release their shared memory.

        Parallel mode owns OS resources (processes, pipes, shm rings);
        call this when done, or drive the cluster as a context manager.
        In-process clusters are a no-op.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            worker.shutdown()

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def evict_segment(self, segment_id: int) -> None:
        """Evict a segment cluster-wide (owner drops it, ring withdraws).

        The owning worker's eviction listener fires back into the
        cluster, which withdraws the segment from the router and drops
        the origin copy — later asks fail with the same clean
        :class:`~repro.errors.CapacityError` a single node raises for a
        missing segment, instead of routing to a worker that no longer
        holds the data.
        """
        worker_id = self._router.worker_for(segment_id)
        self._workers[worker_id].evict_segment(segment_id)

    def stats_snapshot(self) -> dict:
        """Cluster rollup plus per-worker labeled series.

        Every live worker's ``stats_snapshot`` contributes its series
        re-keyed with a ``worker="N"`` label — in parallel mode the
        snapshot dict crosses the process boundary as a control
        message, which is exactly the pickle-then-merge round trip the
        obs suite property-tests, so both substrates export one ledger
        the same way.  :func:`repro.obs.merge_snapshots` folds them
        with every :class:`ClusterStats` field as a ``cluster_*``
        counter and the live-state gauges (live workers, pending
        blocks, placed segments, the parallel flag); parallel clusters
        add their control-plane byte counters so dashboards can watch
        the control/data split stay lopsided.
        """
        per_worker = []
        for wid in self.live_workers:
            if self._is_down(wid):
                continue  # no process to ask; its series resume on restart
            try:
                per_worker.append(
                    _labeled(self._workers[wid].stats_snapshot(), wid)
                )
            except WorkerCrashError as exc:
                if self.supervisor is None:
                    raise
                self.supervisor.note_failure(wid, exc, phase="snapshot")
        own = self.stats.series("cluster")
        own["gauges"].update(
            cluster_live_workers=float(self.num_workers),
            cluster_parallel=float(self.parallel),
            cluster_pending_blocks=float(self.pending_blocks),
            cluster_segments_placed=float(self._router.advertised_segments),
        )
        if self.parallel:
            sent = received = 0
            for worker in self._workers.values():
                sent += worker.control_bytes_sent
                received += worker.control_bytes_received
            own["counters"]["cluster_control_bytes_sent"] = float(sent)
            own["counters"]["cluster_control_bytes_received"] = float(received)
        if self.supervisor is not None:
            return merge_snapshots(
                *per_worker, own, self.supervisor.snapshot_series()
            )
        return merge_snapshots(*per_worker, own)

    # -- elastic membership ------------------------------------------------

    def next_worker_id(self) -> int:
        """The smallest worker id free for :meth:`add_worker`.

        Ids of decommissioned workers are reused (the id space is capped
        at :data:`~repro.rlnc.wire.MAX_WORKER_ID` by the v2 wire stamp,
        so a long-lived autoscaled cluster must recycle), but an id
        still tracked by the supervisor as down is skipped — its restart
        path owns that slot until the breaker or a decommission frees
        it.

        Raises:
            CapacityError: if every id in the stamp space is live.
        """
        live = set(self._router.live_workers)
        for candidate in range(MAX_WORKER_ID + 1):
            if candidate in live:
                continue
            if self.supervisor is not None and self.supervisor.is_down(
                candidate
            ):
                continue
            return candidate
        raise CapacityError(
            f"all {MAX_WORKER_ID + 1} worker ids are live; cannot scale up"
        )

    def add_worker(self, worker_id: int | None = None) -> dict[int, int]:
        """Scale up: join a fresh worker and migrate only its segments.

        The autoscaler's grow primitive, the mirror image of
        :meth:`kill_worker`'s shrink: the newcomer claims its vnodes on
        the ring, and consistent hashing moves exactly the segments
        whose arcs it now owns — each re-published to the new worker
        from the cluster's origin copy, then evicted from its previous
        owner (the stale-eviction guard keeps the withdrawal from
        un-placing the new copy).  Every registered peer is connected
        on the newcomer, so in-flight sessions simply see their next
        asks routed there; blocks pending on a previous owner are
        served by it before the eviction lands, and anything lost in
        the window re-requests through the ordinary NACK path.

        Args:
            worker_id: explicit id to join with (must not be live);
                default :meth:`next_worker_id`.

        Returns:
            ``segment_id -> worker_id`` for the segments that moved to
            the new worker (possibly empty).

        Raises:
            ConfigurationError: if the id is live, out of stamp range,
                or held by a supervised down worker.
            CapacityError: if the id space is exhausted.
        """
        if worker_id is None:
            worker_id = self.next_worker_id()
        if not 0 <= worker_id <= MAX_WORKER_ID:
            raise ConfigurationError(
                f"worker id must be in [0, {MAX_WORKER_ID}], got {worker_id}"
            )
        if worker_id in self._router.ring:
            raise ConfigurationError(f"worker {worker_id} is already live")
        if self.supervisor is not None and self.supervisor.is_down(worker_id):
            raise ConfigurationError(
                f"worker {worker_id} is down awaiting restart; its id is "
                "not free until the supervisor evicts or heals it"
            )
        previous_owner = self._router.placement()
        worker = self._spawn_worker(worker_id)
        try:
            moved = self._router.expand(worker_id)
            for segment_id in moved:
                worker.publish(self._origin[segment_id])
            for peer_id, view in self._peers.items():
                view._attach(worker_id, worker.connect(peer_id))
        except Exception:
            worker.shutdown()
            raise
        self._workers[worker_id] = worker
        if self.supervisor is not None:
            self.supervisor.watch(worker_id, worker)
        for segment_id in moved:
            old_owner = previous_owner[segment_id]
            if not self._is_down(old_owner):
                # The guarded eviction listener sees the placement
                # already pointing at the newcomer and ignores this.
                self._workers[old_owner].evict_segment(segment_id)
        self.stats.workers_added += 1
        self.stats.segments_rebalanced += len(moved)
        return moved

    def remove_worker(self, worker_id: int) -> dict[int, int]:
        """Scale down: gracefully decommission a worker.

        The autoscaler's shrink primitive.  Shares :meth:`kill_worker`'s
        rebalance machinery — the leaver's segments re-place onto the
        survivors the ring already assigns them and re-publish from
        origin copies — but the teardown is a clean shutdown rather
        than a SIGKILL, and the event counts as ``workers_removed``,
        not ``workers_killed``.  Safe to call on a supervised worker
        that is currently down (a scale-down racing the supervisor's
        restart backoff): the supervisor forgets it and the rebalance
        proceeds — decommissioning wins the race.

        Returns:
            ``segment_id -> new_worker_id`` for the moved segments.

        Raises:
            ConfigurationError: if the worker is not live, or it is the
                last one while segments are still placed.
        """
        moved = self._router.rebalance(worker_id)
        self._workers[worker_id].shutdown()
        if self.supervisor is not None:
            self.supervisor.forget(worker_id)
        self._finish_eviction(worker_id, moved, removal="removed")
        return moved

    # -- failure and rebalance ---------------------------------------------

    def kill_worker(self, worker_id: int) -> dict[int, int]:
        """Fail a worker; rebalance exactly its segments onto survivors.

        In parallel mode this SIGKILLs the actual worker process (and
        reaps its pipe and shared-memory ring) — the fault harness
        exercises a real process death, not a simulated one.  Either
        way the dead worker leaves the ring, its segments re-place onto
        the survivors the ring already assigns them (minimal
        disruption), and its origin copies re-publish there.  Every
        connected peer's view drops the dead worker's session, so
        in-flight pending counts vanish and the client NACK path
        re-requests the missing rank from the new owners — no session
        loses decoder rank.

        Returns:
            ``segment_id -> new_worker_id`` for the moved segments.

        Raises:
            ConfigurationError: if the worker is not live, or it is the
                last one while segments are still placed.
        """
        moved = self._router.rebalance(worker_id)
        self._workers[worker_id].kill()
        if self.supervisor is not None:
            # A deliberate kill is an eviction, not an outage: the
            # supervisor must not restart this worker.
            self.supervisor.forget(worker_id)
        self._finish_eviction(worker_id, moved)
        return moved

    def _evict_worker(self, worker_id: int) -> dict[int, int]:
        """Circuit-breaker eviction: the victim is already torn down.

        Same terminal path as :meth:`kill_worker` minus the kill (the
        supervisor SIGKILLed the process when it detected the failure);
        survivors that are themselves down get their moved segments on
        restart, when everything the ring maps to them republishes.
        """
        moved = self._router.rebalance(worker_id)
        self._finish_eviction(worker_id, moved)
        return moved

    def _finish_eviction(
        self, worker_id: int, moved: dict[int, int], *, removal: str = "killed"
    ) -> None:
        """Shared tail of every departure path (kill / evict / remove).

        ``removal`` picks which event counter the departure lands in:
        ``"killed"`` (failures and deliberate kills) or ``"removed"``
        (graceful autoscale decommissions).
        """
        for segment_id, new_worker in moved.items():
            if self._is_down(new_worker):
                continue
            self._workers[new_worker].publish(self._origin[segment_id])
        for view in self._peers.values():
            view._detach(worker_id)
        if removal == "removed":
            self.stats.workers_removed += 1
        else:
            self.stats.workers_killed += 1
        self.stats.segments_rebalanced += len(moved)

    # -- internal ----------------------------------------------------------

    def _on_worker_eviction(self, worker_id: int, segment_id: int) -> None:
        """Worker-side eviction callback: withdraw from the ring.

        Only the current owner's eviction withdraws the segment — a
        stale callback from a worker that lost the segment in a
        rebalance must not un-place the new owner's copy.
        """
        if self._router.placement().get(segment_id) != worker_id:
            return
        self._router.withdraw(segment_id)
        self._origin.pop(segment_id, None)
        self.stats.segments_withdrawn += 1


class _RoundTicket:
    """An in-flight round: dispatched workers awaiting the barrier.

    Created by :meth:`ServingCluster.begin_round`;
    :meth:`ServingCluster.collect_round` consumes it exactly once.
    Holds the dispatch-time supervision snapshot (down workers,
    dispatch failures) so the collect half charges degradation to the
    round that actually suffered it.
    """

    __slots__ = ("down", "dispatched", "failed", "taken")

    def __init__(self, down: frozenset[int]) -> None:
        self.down = down
        self.dispatched: list[tuple[int, LocalWorker | WorkerProcess, float]] = []
        self.failed = 0
        self.taken = False
