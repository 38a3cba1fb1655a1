"""Seeded end-to-end cluster workloads, shared by tests, CLI and bench.

One entry point, :func:`run_cluster_workload`, builds a
:class:`~repro.cluster.cluster.ServingCluster`, publishes deterministic
segments, fans out NACK-driven
:class:`~repro.streaming.client.ClientSession` peers through the
unified serving facade, optionally injects a
:class:`~repro.faults.WorkerKillPlan` failure mid-flight, and verifies
every recovered segment byte-for-byte against its origin.  Everything —
segment payloads, coding coefficients, ring placement, the kill victim
and its trigger round — derives from the workload seed, so the soak
test, the ``repro cluster`` demo and the scale-out benchmark all replay
identical runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import ClusterStats, ServingCluster
from repro.cluster.supervisor import SupervisorConfig, SupervisorStats
from repro.errors import ConfigurationError, RetryExhaustedError
from repro.faults import ChaosPlan, WorkerKillPlan
from repro.gpu.spec import GTX280, DeviceSpec
from repro.rlnc.block import CodingParams, Segment
from repro.rlnc.wire import VERSION2
from repro.streaming.client import ClientSession
from repro.streaming.rounds import drive
from repro.streaming.session import MediaProfile


@dataclass(frozen=True)
class ClusterWorkloadReport:
    """What one seeded cluster run did, for assertions and display."""

    num_workers: int
    num_peers: int
    num_segments: int
    rounds: int
    byte_exact: bool
    undecoded_peers: tuple[int, ...]
    mismatched_peers: tuple[int, ...]
    killed_worker: int | None
    kill_round: int | None
    parallel: bool = False
    wall_seconds: float = 0.0
    moved_segments: dict[int, int] = field(default_factory=dict)
    placement_before: dict[int, int] = field(default_factory=dict)
    placement_after: dict[int, int] = field(default_factory=dict)
    stats: ClusterStats = field(default_factory=ClusterStats)
    #: Final supervisor accounting (None when unsupervised).
    supervision: SupervisorStats | None = None
    #: Parent-side raw SIGKILL from a chaos plan, if one fired.
    dropped_worker: int | None = None
    drop_round: int | None = None

    @property
    def model_speedup(self) -> float:
        """Modelled scale-out speedup (serial / parallel GPU time)."""
        return self.stats.model_speedup


def make_workload_segments(
    num_segments: int, params: CodingParams, seed: int
) -> list[tuple[Segment, bytes]]:
    """Deterministic origin segments: ``(segment, payload_bytes)`` pairs."""
    out: list[tuple[Segment, bytes]] = []
    for segment_id in range(num_segments):
        rng = np.random.default_rng([seed, 1_000_003, segment_id])
        data = rng.integers(
            0, 256, size=params.segment_bytes, dtype=np.uint8
        ).tobytes()
        out.append((Segment.from_bytes(data, params, segment_id), data))
    return out


def run_cluster_workload(
    *,
    num_workers: int = 4,
    num_peers: int = 64,
    num_segments: int = 16,
    params: CodingParams | None = None,
    seed: int = 0,
    spec: DeviceSpec = GTX280,
    kill_plan: WorkerKillPlan | None = None,
    chaos_plan: ChaosPlan | None = None,
    supervision: SupervisorConfig | None = None,
    wire_version: int = VERSION2,
    max_rounds: int = 10_000,
    per_peer_round_quota: int | None = None,
    max_cluster_pending_blocks: int | None = None,
    parallel: bool = False,
    start_method: str | None = None,
) -> ClusterWorkloadReport:
    """Serve a seeded multi-session workload through a sharded cluster.

    Peer ``i`` fetches segment ``i % num_segments`` to full rank over
    the wire path (v2 frames by default, so every block arrives stamped
    with its worker's id), all of them in one
    :func:`~repro.streaming.rounds.drive`: each round, incomplete
    sessions run their NACK ``pre_round``, the cluster drains one
    coalesced round on every live worker, sessions absorb their frame
    slices.  A
    ``per_peer_round_quota`` stretches delivery over multiple rounds
    (each peer needs ``ceil(n / quota)``), which is what gives a
    mid-flight failure a window to land in.  When a
    ``kill_plan`` is given, the victim worker dies the first round
    workload progress (aggregate decoder rank over total required rank)
    crosses the plan's threshold — surviving rounds prove the failover
    path: rebalanced placement, vanished pending counts, NACK
    re-requests, zero lost decoder rank.

    ``parallel=True`` runs the identical workload on the multiprocess
    substrate (same seeds, byte-identical frames); the kill plan then
    fells a real OS process.  The cluster is always closed before the
    report is built, so no workload leaks processes or shared memory.

    A ``chaos_plan`` (parallel + ``supervision`` required) goes further
    than a kill plan: victims crash, hang or slow down *uninvited* —
    inside their own processes or via a parent-side raw SIGKILL — and
    the cluster's supervisor, not the harness, must detect and heal
    them.  The report then carries the supervisor's final accounting,
    and ``byte_exact`` still demands every payload match its origin:
    the self-healing path may cost rounds, never bytes.

    Returns:
        A :class:`ClusterWorkloadReport`; ``byte_exact`` is True iff
        every session decoded and every recovered payload matched its
        origin bytes exactly.
    """
    if chaos_plan is not None and (not parallel or supervision is None):
        raise ConfigurationError(
            "chaos_plan needs parallel=True and a supervision config — "
            "without a supervisor, an uninvited worker death would "
            "simply crash the workload instead of exercising recovery"
        )
    if params is None:
        params = CodingParams(num_blocks=32, block_size=1024)
    profile = MediaProfile(params=params)
    cluster = ServingCluster(
        spec,
        profile,
        num_workers=num_workers,
        seed=seed,
        per_peer_round_quota=per_peer_round_quota,
        max_cluster_pending_blocks=max_cluster_pending_blocks,
        parallel=parallel,
        start_method=start_method,
        supervision=supervision,
        chaos=chaos_plan,
    )
    start = time.perf_counter()
    try:
        segments = make_workload_segments(num_segments, params, seed)
        for segment, _ in segments:
            cluster.publish(segment)
        placement_before = cluster.placement()

        sessions = [
            ClientSession(cluster, peer_id, wire_version=wire_version)
            for peer_id in range(num_peers)
        ]
        for peer_id, session in enumerate(sessions):
            session.begin_segment(peer_id % num_segments)

        total_rank = num_peers * params.num_blocks
        undecoded: set[int] = set()
        killed_worker: int | None = None
        kill_round: int | None = None
        dropped_worker: int | None = None
        drop_round: int | None = None
        moved: dict[int, int] = {}
        rounds = 0

        def fire_plans() -> None:
            """Fire the kill or chaos drop due before round ``rounds``."""
            nonlocal killed_worker, kill_round, moved, dropped_worker, drop_round
            kill_due = kill_plan is not None and not kill_plan.fired
            drop_due = chaos_plan is not None and not chaos_plan.drop_fired
            if not (kill_due or drop_due):
                return
            progress = (
                sum(s.decoder.rank for s in sessions if s.decoder is not None)
                / total_rank
            )
            if progress >= 1.0:
                # Every session is complete: no round follows.
                return
            if kill_due:
                result = kill_plan.maybe_kill(
                    cluster, progress=progress, round_index=rounds
                )
                if result is not None:
                    killed_worker = kill_plan.victim
                    kill_round = rounds
                    moved = result
            if drop_due:
                victim = chaos_plan.maybe_drop(
                    cluster, progress=progress, round_index=rounds
                )
                if victim is not None:
                    dropped_worker = victim
                    drop_round = rounds

        fire_plans()
        try:
            for _ in drive(
                cluster,
                sessions,
                version=wire_version,
                on_exhausted=lambda session, _: undecoded.add(session.peer_id),
                max_rounds=max_rounds,
            ):
                rounds += 1
                if (
                    cluster.supervisor is not None
                    and cluster.supervisor.down_workers
                ):
                    # Degraded cadence: a real deployment's rounds have a
                    # period, but this loop spins them in microseconds —
                    # so while a worker is down, give the supervisor's
                    # restart backoff wall-clock room before the starved
                    # sessions burn through their RetryLater budget.
                    time.sleep(cluster.supervisor.config.backoff_base)
                fire_plans()
        except RetryExhaustedError:
            # Out of rounds: the sessions still fetching count as
            # undecoded below.
            pass
        supervision_stats = (
            cluster.supervisor.stats.snapshot()
            if cluster.supervisor is not None
            else None
        )
    finally:
        cluster.close()
    wall_seconds = time.perf_counter() - start

    mismatched: list[int] = []
    for peer_id, session in enumerate(sessions):
        if peer_id in undecoded:
            continue
        if not session.complete:
            undecoded.add(peer_id)
            continue
        _, origin = segments[peer_id % num_segments]
        recovered = session.finish_segment(len(origin))
        if recovered.to_bytes() != origin:
            mismatched.append(peer_id)

    return ClusterWorkloadReport(
        num_workers=num_workers,
        num_peers=num_peers,
        num_segments=num_segments,
        rounds=rounds,
        byte_exact=not undecoded and not mismatched,
        parallel=parallel,
        wall_seconds=wall_seconds,
        undecoded_peers=tuple(sorted(undecoded)),
        mismatched_peers=tuple(mismatched),
        killed_worker=killed_worker,
        kill_round=kill_round,
        moved_segments=moved,
        placement_before=placement_before,
        placement_after=cluster.placement(),
        stats=cluster.stats.snapshot(),
        supervision=supervision_stats,
        dropped_worker=dropped_worker,
        drop_round=drop_round,
    )
