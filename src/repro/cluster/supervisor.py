"""Supervision and self-healing for the multiprocess serving cluster.

PR 6 gave the cluster real OS-process workers and a *requested* failure
path: the harness calls :meth:`~repro.cluster.cluster.ServingCluster
.kill_worker` and the cluster rebalances.  This module closes the other
half of the failure model — workers that crash, hang or degrade **on
their own**.  Without it, a worker that dies mid-round parks the round
barrier forever: ``finish_round`` blocks on a pipe nobody will ever
write again.

The supervisor layers three mechanisms over the existing control plane:

* **Heartbeats & liveness.**  Every command reply already crosses the
  pipe; the supervisor piggybacks on that traffic by tracking each
  worker's *last-reply age* and send-to-reply latency (recorded in
  :class:`~repro.cluster.worker.WorkerProcess`).  A worker that has
  been silent past ``max_reply_age`` gets an explicit ``ping`` probe
  with its own deadline; ``is_alive`` catches the cheap case where the
  OS already knows the process is gone.

* **Deadlines.**  Round dispatch and control commands carry timeouts
  (``round_timeout`` / ``command_timeout``).  A worker that misses one
  raises :class:`~repro.errors.WorkerTimeoutError` instead of blocking
  the dispatch barrier; the handle is *tainted* (a late reply would
  desynchronize the pipe) and torn down.  Repeated replies slower than
  ``slow_round_seconds`` accumulate strikes; ``max_slow_strikes``
  consecutive strikes count as a failure too — slow is the hard case
  the crash detector cannot see.

* **Recovery.**  On any detected failure the supervisor SIGKILLs the
  process, reaps its shared-memory ring, and schedules a restart under
  exponential backoff and a per-worker ``restart_budget``.  The restart
  spawns a fresh process under the same worker id, republishes the
  victim's segments from the cluster's origin copies, and reconnects
  every registered peer; in-flight sessions recover through the
  ordinary NACK path because the victim's pending counts vanished from
  their :class:`~repro.cluster.cluster.ClusterPeerView`.  While the
  worker is down the router still maps its segments to it — those
  requests answer :class:`~repro.errors.RetryLater` (never a raw
  :class:`~repro.errors.WorkerCrashError`), and serve rounds complete
  *degraded* on the survivors.  A worker that exhausts its budget trips
  the **circuit breaker**: it is permanently evicted and the ring
  rebalances its segments onto survivors, exactly like an explicit
  ``kill_worker``.

Every event publishes through :mod:`repro.obs` (restarts, timeouts,
breaker trips, degraded rounds, a detection-latency histogram) so the
`cluster_failover` benchmark and the chaos soak can assert exact
accounting: scheduled faults in, detections and recoveries out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.obs.stats import CumulativeStats


@dataclass(frozen=True)
class SupervisorConfig:
    """Detection thresholds and recovery policy for the supervisor.

    Attributes:
        command_timeout: deadline (seconds) for control round trips
            (publish/connect/request/ping); ``None`` disables.
        round_timeout: deadline for a dispatched serve round, from
            ``start_round`` to its reply; ``None`` disables.
        heartbeat_timeout: deadline for an explicit liveness probe.
        max_reply_age: a worker silent longer than this gets probed on
            the next :meth:`WorkerSupervisor.tick`; ``None`` disables.
        slow_round_seconds: a round slower than this is a *strike*;
            ``None`` disables slow detection.
        max_slow_strikes: consecutive strikes that count as a failure.
        restart_budget: restarts each worker may consume before the
            circuit breaker evicts it permanently (0 = never restart).
        backoff_base: delay before the first restart.
        backoff_factor: multiplier per consumed restart.
        backoff_max: backoff ceiling.
    """

    command_timeout: float | None = 30.0
    round_timeout: float | None = 60.0
    heartbeat_timeout: float = 5.0
    max_reply_age: float | None = 30.0
    slow_round_seconds: float | None = None
    max_slow_strikes: int = 3
    restart_budget: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        for name in ("command_timeout", "round_timeout", "max_reply_age",
                     "slow_round_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be positive or None, got {value}"
                )
        if self.heartbeat_timeout <= 0:
            raise ConfigurationError("heartbeat_timeout must be positive")
        if self.max_slow_strikes < 1:
            raise ConfigurationError("max_slow_strikes must be >= 1")
        if self.restart_budget < 0:
            raise ConfigurationError("restart_budget must be >= 0")
        if self.backoff_base <= 0 or self.backoff_max < self.backoff_base:
            raise ConfigurationError(
                "backoff bounds must satisfy 0 < base <= max"
            )
        if self.backoff_factor < 1:
            raise ConfigurationError("backoff_factor must be >= 1")

    def backoff_for(self, restarts_used: int) -> float:
        """Restart delay after ``restarts_used`` consumed restarts."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor**restarts_used,
        )


@dataclass
class SupervisorStats(CumulativeStats):
    """Cumulative supervision accounting for one cluster lifetime.

    Follows the explicit cumulative contract shared by
    :class:`~repro.cluster.cluster.ClusterStats` and friends: counters
    only grow; use :meth:`snapshot`/:meth:`delta` for per-phase views.

    The counters satisfy exact identities the chaos soak asserts:
    ``failures_detected == crashes_detected + hangs_detected +
    slow_evictions``, every failure ends in exactly one of a recovery,
    a breaker trip, or a still-down worker, and ``restarts ==
    recoveries + restart_failures``.
    """

    failures_detected: int = 0
    crashes_detected: int = 0
    hangs_detected: int = 0
    slow_strikes: int = 0
    slow_evictions: int = 0
    restarts: int = 0
    restart_failures: int = 0
    recoveries: int = 0
    breaker_trips: int = 0
    degraded_rounds: int = 0
    stale_ring_retries: int = 0
    republished_segments: int = 0
    reconnected_sessions: int = 0
    recovery_rounds_total: int = 0
    detection_seconds_total: float = 0.0

    @property
    def detection_seconds_avg(self) -> float:
        """Mean silent-to-detected latency over all failures (0 if none)."""
        if not self.failures_detected:
            return 0.0
        return self.detection_seconds_total / self.failures_detected

    @property
    def recovery_rounds_avg(self) -> float:
        """Mean serve rounds a worker spent down before recovering."""
        if not self.recoveries:
            return 0.0
        return self.recovery_rounds_total / self.recoveries


class _WorkerState:
    """Supervision state for one worker id (survives restarts)."""

    __slots__ = (
        "restarts_used",
        "down_since",
        "down_at_round",
        "restart_at",
        "slow_strikes",
        "evicted",
        "last_error",
    )

    def __init__(self) -> None:
        self.restarts_used = 0
        self.down_since: float | None = None
        self.down_at_round = 0
        self.restart_at = 0.0
        self.slow_strikes = 0
        self.evicted = False
        self.last_error: BaseException | None = None


class WorkerSupervisor:
    """Watches a parallel cluster's workers; detects, heals, evicts.

    Owned by :class:`~repro.cluster.cluster.ServingCluster` when it is
    constructed with ``supervision=SupervisorConfig(...)`` (parallel
    mode only — an in-process worker cannot hang independently of its
    caller).  The cluster drives it at well-defined points: ``tick()``
    at the top of every serve round (heal due workers, probe silent
    ones), ``note_failure()`` wherever a command raises, and
    ``note_round()`` with each worker's measured round latency.
    """

    def __init__(self, cluster, config: SupervisorConfig) -> None:
        self.cluster = cluster
        self.config = config
        self.stats = SupervisorStats()
        self._states: dict[int, _WorkerState] = {
            worker_id: _WorkerState() for worker_id in cluster.live_workers
        }
        for worker_id in cluster.live_workers:
            self._arm(cluster._workers[worker_id])

    # -- topology ----------------------------------------------------------

    @property
    def down_workers(self) -> tuple[int, ...]:
        """Workers currently torn down and awaiting restart, ascending."""
        return tuple(
            sorted(
                worker_id
                for worker_id, state in self._states.items()
                if state.down_since is not None and not state.evicted
            )
        )

    def is_down(self, worker_id: int) -> bool:
        """True while ``worker_id`` is dead but still on the ring."""
        state = self._states.get(worker_id)
        return (
            state is not None
            and state.down_since is not None
            and not state.evicted
        )

    def restarts_used(self, worker_id: int) -> int:
        state = self._states.get(worker_id)
        return 0 if state is None else state.restarts_used

    def _arm(self, proc) -> None:
        """Put this supervisor's command deadline on a worker process."""
        proc.command_timeout = self.config.command_timeout

    # -- detection ---------------------------------------------------------

    def tick(self, now: float | None = None) -> None:
        """One supervision pass: heal due workers, probe silent ones.

        The cluster calls this at the top of every serve round; it is
        also safe to call from any idle loop.  Restarts whose backoff
        has elapsed run here (never inline in the failure path, so a
        failing round is not additionally charged the restart).
        """
        now = time.monotonic() if now is None else now
        config = self.config
        for worker_id in sorted(self._states):
            state = self._states[worker_id]
            if state.evicted:
                continue
            if state.down_since is not None:
                if now >= state.restart_at:
                    self._restart(worker_id)
                continue
            proc = self.cluster._workers[worker_id]
            if not proc.is_alive:
                self.note_failure(
                    worker_id,
                    WorkerCrashError(
                        f"worker {worker_id} (pid {proc.pid}) found dead "
                        "by liveness check"
                    ),
                    phase="liveness",
                )
            elif (
                config.max_reply_age is not None
                and proc.reply_age(now) > config.max_reply_age
            ):
                self.probe(worker_id)

    def probe(self, worker_id: int) -> bool:
        """Explicit liveness probe; detects (and tears down) on failure."""
        proc = self.cluster._workers[worker_id]
        try:
            proc.ping(timeout=self.config.heartbeat_timeout)
        except WorkerCrashError as exc:  # includes WorkerTimeoutError
            self.note_failure(worker_id, exc, phase="probe")
            return False
        return True

    def note_round(self, worker_id: int, seconds: float) -> None:
        """Record one worker round's latency; accumulate slow strikes.

        ``max_slow_strikes`` *consecutive* rounds slower than
        ``slow_round_seconds`` count as a failure — the worker is torn
        down and restarted like a hang.  A single fast round clears the
        strike count.
        """
        config = self.config
        if config.slow_round_seconds is None:
            return
        state = self._states.get(worker_id)
        if state is None or state.evicted or state.down_since is not None:
            return
        if seconds <= config.slow_round_seconds:
            state.slow_strikes = 0
            return
        state.slow_strikes += 1
        self.stats.slow_strikes += 1
        if state.slow_strikes >= config.max_slow_strikes:
            self.note_failure(
                worker_id,
                WorkerTimeoutError(
                    f"worker {worker_id} served {state.slow_strikes} "
                    f"consecutive rounds slower than "
                    f"{config.slow_round_seconds:g}s"
                ),
                phase="slow",
                kind="slow",
            )

    def note_failure(
        self,
        worker_id: int,
        error: BaseException,
        *,
        phase: str,
        kind: str | None = None,
    ) -> None:
        """Handle a detected worker failure: tear down, schedule healing.

        Idempotent per outage — a failure surfacing through several
        paths in one round (dispatch send, barrier recv, probe) is
        counted once.  Detection latency is measured against the
        worker's last successful reply: the window in which the cluster
        believed a dead worker was healthy.
        """
        state = self._states.get(worker_id)
        if state is None or state.evicted or state.down_since is not None:
            return
        proc = self.cluster._workers[worker_id]
        now = time.monotonic()
        detection = max(0.0, now - proc.last_reply_at)
        if kind is None:
            kind = "hang" if isinstance(error, WorkerTimeoutError) else "crash"
        if kind == "crash":
            self.stats.crashes_detected += 1
        elif kind == "hang":
            self.stats.hangs_detected += 1
        else:
            self.stats.slow_evictions += 1
        self.stats.failures_detected += 1
        self.stats.detection_seconds_total += detection
        proc.kill()
        # Drop the dead worker's session mirrors from every peer view:
        # its pending counts vanish, which is exactly the signal that
        # makes each client's NACK path re-request the missing rank.
        for view in self.cluster._peers.values():
            view._detach(worker_id)
        state.down_since = now
        state.down_at_round = self.cluster.stats.rounds_served
        state.last_error = error
        if state.restarts_used >= self.config.restart_budget:
            self._trip_breaker(worker_id)
        else:
            state.restart_at = now + self.config.backoff_for(
                state.restarts_used
            )

    # -- recovery ----------------------------------------------------------

    def _restart(self, worker_id: int) -> bool:
        """Spawn a replacement worker and rebuild its serving state.

        Republishes every segment the ring maps to this worker from the
        cluster's origin copies and reconnects every registered peer —
        after which the NACK path re-requests whatever rank the outage
        dropped.  A restart that itself fails consumes budget and
        reschedules (or trips the breaker).
        """
        cluster = self.cluster
        state = self._states[worker_id]
        state.restarts_used += 1
        self.stats.restarts += 1
        fresh = None
        try:
            fresh = cluster._spawn_worker(worker_id)
            self._arm(fresh)
            for segment_id in cluster._router.segments_on(worker_id):
                fresh.publish(cluster._origin[segment_id])
                self.stats.republished_segments += 1
            for peer_id, view in cluster._peers.items():
                view._attach(worker_id, fresh.connect(peer_id))
                self.stats.reconnected_sessions += 1
        except Exception as exc:
            self.stats.restart_failures += 1
            state.last_error = exc
            if fresh is not None:
                fresh.kill()
            if state.restarts_used >= self.config.restart_budget:
                self._trip_breaker(worker_id)
            else:
                state.restart_at = time.monotonic() + self.config.backoff_for(
                    state.restarts_used
                )
            return False
        cluster._workers[worker_id] = fresh
        state.down_since = None
        state.restart_at = 0.0
        state.slow_strikes = 0
        self.stats.recoveries += 1
        self.stats.recovery_rounds_total += (
            cluster.stats.rounds_served - state.down_at_round
        )
        return True

    def _trip_breaker(self, worker_id: int) -> None:
        """Permanently evict a worker that exhausted its restart budget.

        The ring rebalances its segments onto survivors (republished
        from origin copies) and every peer view drops its session —
        the same terminal path an explicit ``kill_worker`` takes.
        """
        state = self._states[worker_id]
        state.evicted = True
        self.stats.breaker_trips += 1
        self.cluster._evict_worker(worker_id)

    # -- bookkeeping hooks (called by the cluster) -------------------------

    def watch(self, worker_id: int, proc) -> None:
        """Start supervising a worker the cluster just scaled up.

        The newcomer gets a fresh supervision state — an id recycled
        from an earlier decommission must not inherit the leaver's
        strikes or consumed restart budget — and this supervisor's
        command deadline is armed on its handle.
        """
        self._states[worker_id] = _WorkerState()
        self._arm(proc)

    def forget(self, worker_id: int) -> None:
        """Stop supervising a worker the caller evicted deliberately."""
        state = self._states.get(worker_id)
        if state is not None:
            state.evicted = True

    def note_degraded_round(self) -> None:
        """A serve round completed without one or more ring workers."""
        self.stats.degraded_rounds += 1

    def note_stale_route(self) -> None:
        """A request routed to a down-but-still-advertised worker."""
        self.stats.stale_ring_retries += 1

    def snapshot_series(self) -> dict[str, dict[str, float]]:
        """Supervision series for the cluster's ``stats_snapshot``: every
        :class:`SupervisorStats` field as a ``supervisor_*`` counter, the
        two means and the down-worker count as gauges."""
        stats = self.stats
        series = stats.series("supervisor")
        series["gauges"].update(
            supervisor_detection_seconds_avg=stats.detection_seconds_avg,
            supervisor_recovery_rounds_avg=stats.recovery_rounds_avg,
            supervisor_workers_down=float(len(self.down_workers)),
        )
        return series
