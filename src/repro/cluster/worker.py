"""Cluster workers: one :class:`LocalWorker` server per worker, two handles.

Every cluster worker's server is a :class:`LocalWorker` (a
:class:`~repro.streaming.server.StreamingServer` seeded with
``default_rng([seed, w])`` and stamped ``worker_id=w``), built from a
:class:`WorkerBootstrap`.  The cluster reaches it through one of two
handles that speak the same round protocol:

* the ``LocalWorker`` itself, in the caller's process (the serial
  substrate);
* a :class:`WorkerProcess`, which hosts it in a separate OS process.

Both serve a round through :meth:`LocalWorker.serve_round_spans`, so a
parallel round is byte-identical to its serial counterpart.

The control/data split of the process handle:

* **Control plane** — a duplex command pipe per worker.  Commands and
  replies are small pickled tuples (requests, round dispatches, stats
  deltas, session-counter diffs); the parent counts every control byte
  so tests can prove payloads never ride this channel.
* **Data plane** — the worker's :class:`~repro.cluster.shm.BlockRing`.
  Segment publishes go parent -> worker through the ring inbox; round
  output goes worker -> parent as wire frames packed straight into the
  ring arena by the worker's own zero-copy
  :meth:`~repro.streaming.server.StreamingServer.serve_round_into`.
  Replies carry only ``(offset, length)`` spans into the ring.

Round dispatch is split into ``start_round`` (fire the round) and
``finish_round`` (collect the reply) so the cluster can launch every
worker's round before waiting on any — the async dispatch loop that
turns N workers into N cores.

The parent mirrors each worker-resident
:class:`~repro.streaming.session.PeerSession` in a :class:`_SessionMirror`
kept exact by counter diffs piggybacked on every reply; the client NACK
path reads cluster-wide pending truth from these mirrors without an
extra round trip.
"""

from __future__ import annotations

import os
import pickle
import time
import weakref
from dataclasses import dataclass, fields
from multiprocessing import get_all_start_methods, get_context

import numpy as np

from repro.cluster.shm import BlockRing
from repro.errors import (
    ConfigurationError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.faults import WorkerChaosSpec
from repro.gpu.spec import DeviceSpec
from repro.kernels.cost_model import EncodeScheme
from repro.rlnc.block import Segment
from repro.rlnc.wire import VERSION, VERSION2, frame_size, stream_size
from repro.streaming.server import StreamingServer
from repro.streaming.session import MediaProfile

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Sentinel distinguishing "no timeout passed" from an explicit None
#: (wait forever) in :meth:`WorkerProcess.call`.
_UNSET = object()

#: Headroom added to the parent's per-round arena-size bound, covering
#: rounding in the bound itself (the bound is already conservative: a
#: round never serves more than the queued block total).
_ARENA_SLACK = 1024

#: Environment override for the process start method (``fork``/``spawn``
#: /``forkserver``).  Fork is preferred where available: workers inherit
#: the parent's imports and log tables instead of re-importing them.
START_METHOD_ENV = "REPRO_MP_START_METHOD"


def default_start_method(override: str | None = None) -> str:
    """Resolve the start method: explicit arg, env var, else fork."""
    method = override or os.environ.get(START_METHOD_ENV)
    if method:
        if method not in get_all_start_methods():
            raise ConfigurationError(
                f"start method {method!r} not available on this platform"
            )
        return method
    return "fork" if "fork" in get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class WorkerBootstrap:
    """Everything a worker needs to build its server (picklable).

    :class:`LocalWorker` is built from one directly; a worker process
    gets one through its command pipe.  No payload bytes here either:
    the ring is named, not embedded, and a worker process attaches to
    it by name (in-process workers have no ring).
    """

    worker_id: int
    spec: DeviceSpec
    profile: MediaProfile
    scheme: EncodeScheme
    seed: int
    per_peer_round_quota: int | None
    max_pending_blocks: int | None
    ring_name: str = ""
    ring_capacity: int = 0
    ring_inbox_bytes: int = 0
    #: Scheduled process-level fault, if this worker is a chaos victim.
    chaos: WorkerChaosSpec | None = None


@dataclass
class WorkerLifecycleStats:
    """Teardown accounting for one :class:`WorkerProcess` handle.

    The supervision layer needs to know *how* a worker died, not just
    that it did: a graceful exit, a SIGKILL, or an escalation because a
    join deadline expired with the process still alive.  Counters only
    grow, following the cumulative contract of the other stats classes.

    Attributes:
        graceful_exits: shutdown handshakes the worker acknowledged.
        sigkills: SIGKILLs delivered to the process.
        join_escalations: graceful shutdowns whose join deadline
            expired with the process still alive, forcing a SIGKILL.
        join_timeouts: post-SIGKILL joins that timed out and had to be
            retried (a reaped-but-unjoined or D-state process).
    """

    graceful_exits: int = 0
    sigkills: int = 0
    join_escalations: int = 0
    join_timeouts: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class LocalWorker(StreamingServer):
    """One cluster worker's server, and its in-process worker handle.

    Every worker's :class:`StreamingServer` is a ``LocalWorker`` built
    from a :class:`WorkerBootstrap`: seeded with ``default_rng([seed,
    w])`` and stamped ``worker_id=w``.  A worker process hosts one
    behind its command pipe; the in-process cluster holds one directly
    and drives it through the same round protocol as a
    :class:`WorkerProcess` — :meth:`start_round`, :meth:`finish_round`,
    :meth:`view`, :meth:`shutdown` and :meth:`kill`.  Both substrates
    serve each round through :meth:`serve_round_spans`; here it packs
    into the server's two alternating wire slots instead of a
    shared-memory ring, so the cluster's dispatch, merge and stats code
    exists once and the substrates agree byte for byte by construction.
    """

    def __init__(self, bootstrap: WorkerBootstrap) -> None:
        super().__init__(
            bootstrap.spec,
            bootstrap.profile,
            scheme=bootstrap.scheme,
            rng=np.random.default_rng([bootstrap.seed, bootstrap.worker_id]),
            per_peer_round_quota=bootstrap.per_peer_round_quota,
            max_pending_blocks=bootstrap.max_pending_blocks,
            worker_id=bootstrap.worker_id,
        )
        self._finished: tuple[dict, dict] | None = None

    def serve_round_spans(
        self, alloc, checksum: bool, version: int
    ) -> tuple[dict[int, list[tuple[int, int]]], dict]:
        """Serve one round into ``alloc``'s storage.

        Returns:
            ``(spans, stats_delta)`` — :meth:`serve_round_into`'s
            per-peer ``(offset, length)`` spans and the round's
            :class:`~repro.streaming.server.ServerStats` delta as a dict.
        """
        before = self.stats.snapshot()
        spans = self.serve_round_into(alloc, checksum=checksum, version=version)
        return spans, self.stats.delta(before).as_dict()

    def start_round(self, *, checksum: bool = True, version: int = VERSION) -> None:
        """Serve one round now; :meth:`finish_round` hands it over."""
        if self._finished is not None:
            raise ConfigurationError(
                f"worker {self.worker_id} already has a round in flight"
            )
        self._finished = self.serve_round_spans(self._alloc_wire, checksum, version)

    def finish_round(
        self, timeout: float | None = None
    ) -> tuple[dict[int, list[tuple[int, int]]], dict]:
        """The round :meth:`start_round` served (``timeout`` is unused:
        an in-process round has already finished)."""
        if self._finished is None:
            raise ConfigurationError(
                f"no round in flight on worker {self.worker_id}"
            )
        finished, self._finished = self._finished, None
        return finished

    def view(self, offset: int, length: int) -> memoryview:
        """Zero-copy view of the last round's output in its wire slot."""
        return self._wire_packed[offset : offset + length]

    def shutdown(self, timeout: float | None = None) -> None:
        """Nothing to release: the worker lives in the caller's process."""

    kill = shutdown


class _SessionMirror:
    """Parent-side mirror of one worker-resident peer session.

    Duck-typed like :class:`~repro.streaming.session.PeerSession` for
    the three counters :class:`~repro.cluster.cluster.ClusterPeerView`
    sums, and kept exact by the counter diffs every worker reply
    piggybacks — the client NACK accounting reads the same values it
    would read in-process.
    """

    __slots__ = ("blocks_requested", "blocks_received", "blocks_pending")

    def __init__(self) -> None:
        self.blocks_requested = 0
        self.blocks_received = 0
        self.blocks_pending = 0


class _WorkerRuntime:
    """The child-process side: a :class:`LocalWorker` driven by the pipe."""

    def __init__(self, bootstrap: WorkerBootstrap, conn) -> None:
        self.conn = conn
        self.ring = BlockRing.attach(
            bootstrap.ring_name,
            capacity=bootstrap.ring_capacity,
            inbox_bytes=bootstrap.ring_inbox_bytes,
        )
        self.server = LocalWorker(bootstrap)
        self.evicted: list[int] = []
        self.server.add_eviction_listener(self.evicted.append)
        #: last counters reported per peer, for reply diffing
        self.reported: dict[int, tuple[int, int, int]] = {}
        #: scheduled process-level fault (chaos victim only)
        self.chaos = bootstrap.chaos
        #: commands handled, per verb — chaos triggers and ping payloads
        self.command_counts: dict[str, int] = {}

    def _inject_chaos(self, tag: str) -> None:
        """Fire this worker's scheduled fault if ``tag`` triggers it.

        Runs *before* the command is handled and before any reply, so a
        crash looks to the parent exactly like a real mid-command death
        (EOF on the pipe) and a hang exactly like a stuck worker (no
        reply until a deadline fires).
        """
        spec = self.chaos
        if spec is None or tag != spec.command:
            return
        count = self.command_counts.get(tag, 0)
        if spec.action == "crash":
            if count == spec.at_count:
                os._exit(spec.exit_code)
        elif spec.action == "hang":
            if count == spec.at_count:
                time.sleep(spec.seconds)
        elif count >= spec.at_count:  # slow: every reply from then on
            time.sleep(spec.seconds)

    def _alloc(self, total: int) -> tuple[memoryview, int]:
        return self.ring.buffer, self.ring.reserve(total)

    def session_updates(self) -> dict[int, tuple[int, int, int] | None]:
        """Counter diffs since the last reply (``None`` = disconnected)."""
        out: dict[int, tuple[int, int, int] | None] = {}
        counters = self.server.session_counters()
        for peer_id, current in counters.items():
            if self.reported.get(peer_id) != current:
                self.reported[peer_id] = current
                out[peer_id] = current
        for peer_id in [p for p in self.reported if p not in counters]:
            del self.reported[peer_id]
            out[peer_id] = None
        return out

    def handle(self, tag: str, args: tuple):
        server = self.server
        if tag == "round":
            return server.serve_round_spans(self._alloc, *args)
        if tag == "request":
            peer_id, segment_id, num_blocks = args
            return server.request_blocks(peer_id, segment_id, num_blocks)
        if tag == "publish":
            segment_id, original_length, n, k = args
            blocks = (
                np.frombuffer(self.ring.inbox, dtype=np.uint8, count=n * k)
                .reshape(n, k)
                .copy()
            )
            server.publish(
                Segment(
                    blocks=blocks,
                    segment_id=segment_id,
                    original_length=original_length,
                )
            )
            return None
        if tag == "connect":
            server.connect(args[0])
            return None
        if tag == "disconnect":
            server.disconnect(args[0])
            return None
        if tag == "evict":
            server.evict_segment(args[0])
            out = tuple(self.evicted)
            self.evicted.clear()
            return out
        if tag == "snapshot":
            return server.stats_snapshot()
        if tag == "ping":
            # The liveness probe: proof the event loop is draining the
            # pipe, plus enough state for the supervisor to cross-check.
            return ("pong", os.getpid(), dict(self.command_counts))
        if tag == "ring":
            name, capacity, inbox_bytes = args
            fresh = BlockRing.attach(
                name, capacity=capacity, inbox_bytes=inbox_bytes
            )
            self.ring.close()
            self.ring = fresh
            return None
        raise ConfigurationError(f"unknown worker command {tag!r}")

    def run(self) -> None:
        conn = self.conn
        while True:
            try:
                raw = conn.recv_bytes()
            except (EOFError, OSError):
                break
            tag, args = pickle.loads(raw)
            self.command_counts[tag] = self.command_counts.get(tag, 0) + 1
            started = time.monotonic()
            self._inject_chaos(tag)
            if tag == "shutdown":
                conn.send_bytes(pickle.dumps(("ok", None, 0, {}), _PROTOCOL))
                break
            try:
                payload = self.handle(tag, args)
                if tag == "round":
                    # The worker's own wall clock for this round, chaos
                    # included.  The parent's barrier collects replies in
                    # worker order, so parent-side timing would charge a
                    # worker for time spent waiting on a slow sibling —
                    # only the child can measure its own slowness.
                    payload[1]["round_wall_seconds"] = (
                        time.monotonic() - started
                    )
            except Exception as exc:
                try:
                    reply = pickle.dumps(("err", exc), _PROTOCOL)
                except Exception:
                    reply = pickle.dumps(
                        ("err", WorkerCrashError(repr(exc))), _PROTOCOL
                    )
                conn.send_bytes(reply)
                continue
            reply = (
                "ok",
                payload,
                self.server.pending_blocks,
                self.session_updates(),
            )
            conn.send_bytes(pickle.dumps(reply, _PROTOCOL))
        self.ring.close()
        conn.close()


def _worker_main(bootstrap: WorkerBootstrap, conn) -> None:
    """Child-process entry point (top level so spawn can import it)."""
    _WorkerRuntime(bootstrap, conn).run()


def _reap(process, conn, state: dict) -> None:
    """Finalizer: make sure the process and its ring never outlive us."""
    try:
        if process.is_alive():
            process.kill()
            process.join(timeout=state.get("join_timeout", 5.0))
    except Exception:
        pass
    try:
        conn.close()
    except Exception:
        pass
    ring = state.get("ring")
    if ring is not None:
        state["ring"] = None
        ring.close()
        ring.unlink()


class WorkerProcess:
    """Parent-side handle on one worker process.

    Owns the process, the command pipe and the shared-memory ring; the
    cluster talks to it with the same verbs it calls on an in-process
    :class:`LocalWorker` (publish/connect/request, and the
    :meth:`start_round`/:meth:`finish_round`/:meth:`view` round
    protocol).

    Every control byte in and out is accounted in
    :attr:`control_bytes_sent`/:attr:`control_bytes_received` — the
    hook the no-payload-on-the-pipe test instruments.
    """

    def __init__(
        self,
        worker_id: int,
        spec: DeviceSpec,
        profile: MediaProfile,
        *,
        scheme: EncodeScheme = EncodeScheme.TABLE_5,
        seed: int = 0,
        per_peer_round_quota: int | None = None,
        max_pending_blocks: int | None = None,
        start_method: str | None = None,
        ring_capacity: int | None = None,
        chaos: WorkerChaosSpec | None = None,
        shutdown_join_timeout: float = 10.0,
        kill_join_timeout: float = 5.0,
    ) -> None:
        if shutdown_join_timeout <= 0 or kill_join_timeout <= 0:
            raise ConfigurationError("join timeouts must be positive")
        self.worker_id = worker_id
        self.profile = profile
        #: graceful-shutdown join deadline before escalating to SIGKILL
        self.shutdown_join_timeout = shutdown_join_timeout
        #: post-SIGKILL join deadline before the reap is retried
        self.kill_join_timeout = kill_join_timeout
        params = profile.params
        if ring_capacity is None:
            # Room for ~two full-segment rounds before the first growth.
            ring_capacity = max(
                1 << 16,
                2
                * stream_size(
                    params.num_blocks,
                    params.num_blocks,
                    params.block_size,
                    checksum=True,
                    version=VERSION2,
                ),
            )
        ring = BlockRing.create(
            capacity=ring_capacity, inbox_bytes=params.segment_bytes
        )
        ctx = get_context(default_start_method(start_method))
        parent_conn, child_conn = ctx.Pipe()
        bootstrap = WorkerBootstrap(
            worker_id=worker_id,
            spec=spec,
            profile=profile,
            scheme=scheme,
            seed=seed,
            per_peer_round_quota=per_peer_round_quota,
            max_pending_blocks=max_pending_blocks,
            ring_name=ring.name,
            ring_capacity=ring.capacity,
            ring_inbox_bytes=ring.inbox_bytes,
            chaos=chaos,
        )
        process = ctx.Process(
            target=_worker_main,
            args=(bootstrap, child_conn),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._process = process
        self._conn = parent_conn
        self._ring = ring
        self._state = {"ring": ring, "join_timeout": kill_join_timeout}
        self._reaped = False
        self._inflight = False
        self._tainted = False
        self._reply_tap = None
        self._eviction_listeners: list = []
        #: default deadline (seconds) for every command round trip;
        #: ``None`` waits forever.  The supervisor sets this on the
        #: workers it watches; explicit ``timeout=`` arguments win.
        self.command_timeout: float | None = None
        #: monotonic time of the last successful reply (spawn time
        #: before any) — the "last-reply age" half of the heartbeat.
        self.last_reply_at = time.monotonic()
        #: send-to-reply latency of the most recent round trip.
        self.last_reply_latency = 0.0
        self._last_send_at = self.last_reply_at
        #: teardown accounting (graceful exits, SIGKILLs, escalations)
        self.lifecycle = WorkerLifecycleStats()
        #: parent-side mirrors of the worker's peer sessions
        self.sessions: dict[int, _SessionMirror] = {}
        #: mirrored total of the worker's queued coded blocks
        self.pending_blocks = 0
        self.control_bytes_sent = 0
        self.control_bytes_received = 0
        self._finalizer = weakref.finalize(
            self, _reap, process, parent_conn, self._state
        )

    # -- plumbing ----------------------------------------------------------

    @property
    def pid(self) -> int | None:
        return self._process.pid

    @property
    def is_alive(self) -> bool:
        return self._process.is_alive()

    @property
    def ring(self) -> BlockRing:
        return self._ring

    @property
    def tainted(self) -> bool:
        """True after a missed deadline left the pipe out of sync."""
        return self._tainted

    def reply_age(self, now: float | None = None) -> float:
        """Seconds since the last successful reply (liveness signal)."""
        return (time.monotonic() if now is None else now) - self.last_reply_at

    def tap_replies(self, callback) -> None:
        """Register a hook fed every raw reply (test instrumentation)."""
        self._reply_tap = callback

    def _send(self, tag: str, *args) -> None:
        if self._reaped:
            raise WorkerCrashError(
                f"worker {self.worker_id} has been shut down"
            )
        if self._tainted:
            raise WorkerTimeoutError(
                f"worker {self.worker_id} (pid {self.pid}) missed a "
                "deadline; its command pipe is out of sync — replace it"
            )
        raw = pickle.dumps((tag, args), _PROTOCOL)
        self.control_bytes_sent += len(raw)
        self._last_send_at = time.monotonic()
        try:
            self._conn.send_bytes(raw)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashError(
                f"worker {self.worker_id} (pid {self.pid}) is gone; "
                "command pipe is broken"
            ) from exc

    def _recv(self, timeout: float | None = None):
        """Collect one reply, optionally bounded by a deadline.

        A missed deadline taints the handle: the late reply (if the
        worker is merely slow) would pair with the *next* command, so
        every later send refuses until the supervisor replaces the
        process.
        """
        try:
            if timeout is not None and not self._conn.poll(timeout):
                self._tainted = True
                raise WorkerTimeoutError(
                    f"worker {self.worker_id} (pid {self.pid}) exceeded "
                    f"its {timeout:g}s deadline"
                )
            raw = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise WorkerCrashError(
                f"worker {self.worker_id} (pid {self.pid}) died mid-command"
            ) from exc
        self.control_bytes_received += len(raw)
        now = time.monotonic()
        self.last_reply_latency = now - self._last_send_at
        self.last_reply_at = now
        if self._reply_tap is not None:
            self._reply_tap(raw)
        message = pickle.loads(raw)
        if message[0] == "err":
            raise message[1]
        _, payload, pending, updates = message
        self.pending_blocks = pending
        for peer_id, counters in updates.items():
            if counters is None:
                self.sessions.pop(peer_id, None)
                continue
            mirror = self.sessions.get(peer_id)
            if mirror is None:
                mirror = self.sessions[peer_id] = _SessionMirror()
            (
                mirror.blocks_requested,
                mirror.blocks_received,
                mirror.blocks_pending,
            ) = counters
        return payload

    def call(self, tag: str, *args, timeout=_UNSET):
        """One synchronous control round trip.

        ``timeout`` defaults to :attr:`command_timeout`; pass an
        explicit ``None`` to wait forever regardless of the default.
        """
        self._send(tag, *args)
        return self._recv(
            self.command_timeout if timeout is _UNSET else timeout
        )

    def ping(self, timeout=_UNSET):
        """Liveness probe: a no-op round trip through the worker loop.

        Returns the worker's ``(\"pong\", pid, command_counts)`` reply;
        raises :class:`~repro.errors.WorkerTimeoutError` /
        :class:`~repro.errors.WorkerCrashError` like any command when
        the worker is hung or gone.
        """
        return self.call("ping", timeout=timeout)

    # -- the serving verbs -------------------------------------------------

    def publish(self, segment: Segment) -> None:
        """Publish through the ring inbox: geometry on the pipe, payload
        bytes through shared memory."""
        data = np.ascontiguousarray(segment.blocks, dtype=np.uint8)
        n, k = data.shape
        staged = np.frombuffer(self._ring.inbox, dtype=np.uint8, count=data.size)
        staged[:] = data.reshape(-1)
        del staged
        original = segment.original_length
        self.call("publish", segment.segment_id, original, n, k)

    def connect(self, peer_id: int) -> _SessionMirror:
        self.call("connect", peer_id)
        mirror = self.sessions.get(peer_id)
        if mirror is None:
            mirror = self.sessions[peer_id] = _SessionMirror()
        return mirror

    def disconnect(self, peer_id: int) -> None:
        self.call("disconnect", peer_id)

    def request_blocks(self, peer_id: int, segment_id: int, num_blocks: int):
        return self.call("request", peer_id, segment_id, num_blocks)

    def add_eviction_listener(self, listener) -> None:
        """Same hook a :class:`StreamingServer` exposes: fire parent-side
        callbacks for worker-side evictions (relayed through replies)."""
        self._eviction_listeners.append(listener)

    def evict_segment(self, segment_id: int) -> tuple[int, ...]:
        """Evict on the worker; relays the worker-side eviction events
        to parent-side listeners and returns the evicted segment ids."""
        evicted = self.call("evict", segment_id)
        for sid in evicted:
            for listener in self._eviction_listeners:
                listener(sid)
        return evicted

    def stats_snapshot(self) -> dict:
        return self.call("snapshot")

    # -- async round dispatch ----------------------------------------------

    def start_round(self, *, checksum: bool = True, version: int = VERSION) -> None:
        """Fire one serving round without waiting for it to finish."""
        if self._inflight:
            raise ConfigurationError(
                f"worker {self.worker_id} already has a round in flight"
            )
        params = self.profile.params
        bound = (
            self.pending_blocks
            * frame_size(
                params.num_blocks,
                params.block_size,
                checksum=checksum,
                version=version,
            )
            + _ARENA_SLACK
        )
        self._ensure_arena(bound)
        self._send("round", checksum, version)
        self._inflight = True

    def finish_round(
        self, timeout=_UNSET
    ) -> tuple[dict[int, list[tuple[int, int]]], dict]:
        """Barrier on the in-flight round, optionally deadline-bounded.

        Returns:
            ``(spans, stats_delta)`` — per-peer lists of ``(offset,
            length)`` ring spans (one per granted batch, contiguous per
            peer), and the round's ``ServerStats`` delta as a dict.

        Raises:
            WorkerTimeoutError: the round missed its deadline (the
                handle is tainted; the supervisor must replace it).
            WorkerCrashError: the worker died mid-round.
        """
        if not self._inflight:
            raise ConfigurationError(
                f"no round in flight on worker {self.worker_id}"
            )
        self._inflight = False
        return self._recv(
            self.command_timeout if timeout is _UNSET else timeout
        )

    def view(self, offset: int, length: int) -> memoryview:
        """Zero-copy view of round output in this worker's ring."""
        return self._ring.view(offset, length)

    def _ensure_arena(self, needed: int) -> None:
        """Grow the ring before a round that would overflow the arena.

        The parent creates the replacement (it owns every segment's
        lifetime — a SIGKILLed worker must never strand a segment it
        created), tells the worker to re-attach, then unlinks the old
        ring.
        """
        if needed <= self._ring.capacity:
            return
        fresh = BlockRing.create(
            capacity=max(needed, 2 * self._ring.capacity),
            inbox_bytes=self._ring.inbox_bytes,
        )
        try:
            self.call("ring", fresh.name, fresh.capacity, fresh.inbox_bytes)
        except Exception:
            fresh.close()
            fresh.unlink()
            raise
        stale = self._ring
        self._ring = fresh
        self._state["ring"] = fresh
        stale.close()
        stale.unlink()

    # -- lifecycle ---------------------------------------------------------

    def kill(self, join_timeout: float | None = None) -> None:
        """Hard-kill the process (SIGKILL) and release pipe + ring.

        This is the failover path: the fault harness calls it through
        :meth:`ServingCluster.kill_worker`, and the supervisor calls it
        to tear down a crashed or hung worker before restarting it.
        The post-SIGKILL join deadline is :attr:`kill_join_timeout`
        unless overridden; a join that expires with the process still
        alive is retried once with a fresh SIGKILL and recorded in
        :attr:`lifecycle` — the handle never reports success while it
        knows the process survives.  Idempotent.
        """
        if self._reaped:
            return
        self._reaped = True
        join_timeout = (
            self.kill_join_timeout if join_timeout is None else join_timeout
        )
        if self._process.is_alive():
            self._process.kill()
            self.lifecycle.sigkills += 1
        self._process.join(timeout=join_timeout)
        if self._process.is_alive():
            # SIGKILL is not maskable, but the join can still lose the
            # race (or the process can sit in uninterruptible sleep):
            # escalate with a second kill + join rather than returning
            # with a live process.
            self.lifecycle.join_timeouts += 1
            self._process.kill()
            self.lifecycle.sigkills += 1
            self._process.join(timeout=join_timeout)
        try:
            self._conn.close()
        except OSError:
            pass
        self._state["ring"] = None
        self._ring.close()
        self._ring.unlink()
        self._finalizer.detach()
        self.sessions.clear()
        self.pending_blocks = 0

    def shutdown(self, timeout: float | None = None) -> None:
        """Graceful stop: ask the worker to exit, then reap everything.

        The handshake and join share one deadline
        (:attr:`shutdown_join_timeout` unless overridden) so a hung
        worker cannot block shutdown forever; when the deadline expires
        with the process alive, the stop escalates to :meth:`kill` and
        the escalation is recorded in :attr:`lifecycle`.  Falls back to
        :meth:`kill` when the worker is already gone.
        """
        if self._reaped:
            return
        timeout = self.shutdown_join_timeout if timeout is None else timeout
        graceful = False
        try:
            self.call("shutdown", timeout=timeout)
            self._process.join(timeout=timeout)
            graceful = not self._process.is_alive()
        except (WorkerCrashError, OSError):
            pass
        if graceful:
            self.lifecycle.graceful_exits += 1
        else:
            self.lifecycle.join_escalations += 1
        self.kill()
