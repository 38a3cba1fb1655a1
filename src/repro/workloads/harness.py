"""The million-session load harness: modelled mass + sampled truth.

Driving 10^5-10^6 *real* decoder sessions through one Python process
would measure the harness, not the system, so the load test splits the
population the way large-scale simulators do:

* **Modelled mass** — the full session population lives in numpy
  structure-of-arrays (remaining blocks, arrival round, drawn segment).
  Its demand is priced against the paper's *cost model*: a worker's
  per-round service capacity is ``encode_bandwidth(spec, scheme, n, k)
  / k * round_seconds`` coded blocks — the same deterministic model the
  kernel benchmarks validate — so capacity, utilization and admission
  delay are exact functions of the seed, never of host speed.
* **Sampled truth** — a small cohort of real NACK-driven
  :class:`~repro.streaming.client.ClientSession` peers rides the actual
  :class:`~repro.cluster.cluster.ServingCluster` every round, fetching
  popularity-drawn segments over the v2 wire path and verifying every
  completed segment byte-for-byte against its origin.  Scale events,
  churn flaps and shed responses all happen *under* these sessions, so
  byte-exactness certifies the data path through every membership
  change the autoscaler makes.

Admission follows the cluster's shed philosophy: a session that cannot
be admitted this round is answered :class:`~repro.errors.RetryLater`
and **stays queued** — load shedding paces, it never drops.  Each
admission observes its queueing delay (in rounds) into the run's
admission-delay histogram, and each round hands demand over capacity
to the :class:`~repro.workloads.autoscaler.Autoscaler` as its
utilization — the two inputs it steers by.  The report's p50/p99
admission delays come from the same histogram.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster import ClusterStats, ServingCluster
from repro.cluster.harness import make_workload_segments
from repro.errors import ConfigurationError, RetryLater
from repro.faults import ChurnPlan
from repro.gpu.spec import GTX280, DeviceSpec
from repro.kernels.cost_model import EncodeScheme, encode_bandwidth
from repro.obs.registry import Histogram
from repro.obs.stats import CumulativeStats
from repro.rlnc.block import CodingParams
from repro.rlnc.wire import VERSION2
from repro.streaming.client import ClientSession
from repro.streaming.rounds import drive
from repro.streaming.session import MediaProfile
from repro.workloads.autoscaler import Autoscaler, AutoscalerConfig, ScaleEvent
from repro.workloads.traffic import (
    FlashCrowd,
    PoissonArrivals,
    TrafficGenerator,
    ZipfPopularity,
)


@dataclass
class LoadStats(CumulativeStats):
    """Cumulative load-harness accounting for one run.

    Follows the explicit cumulative contract shared by
    :class:`~repro.cluster.cluster.ClusterStats` and friends: counters
    only grow; use :meth:`snapshot`/:meth:`delta` for per-phase figures
    or :meth:`reset` between phases.
    """

    rounds: int = 0
    arrivals: int = 0
    admitted: int = 0
    shed_responses: int = 0
    departures: int = 0
    completions: int = 0
    flaps: int = 0
    blocks_modelled: float = 0.0


class AdmissionController:
    """FIFO admission with shed pacing — queue, never drop.

    Arrivals enqueue in per-round groups; :meth:`admit` releases the
    oldest sessions into the active population up to the round's
    capacity headroom, and every session still waiting afterwards is
    counted as having received one :class:`~repro.errors.RetryLater`
    response that round (the same pacing answer the cluster's
    request-path shed gives).  Nothing is ever discarded: a queued
    session's bytes are served late, not lost.
    """

    def __init__(self) -> None:
        #: FIFO of ``[arrival_round, sessions_waiting]`` groups.
        self._queue: deque[list[int]] = deque()
        self._waiting = 0

    @property
    def waiting(self) -> int:
        """Sessions queued for admission right now."""
        return self._waiting

    def offer(self, round_index: int, count: int) -> None:
        """Queue ``count`` sessions that arrived during ``round_index``."""
        if count > 0:
            self._queue.append([round_index, count])
            self._waiting += count

    def admit(
        self, round_index: int, slots: int
    ) -> tuple[int, list[tuple[int, int]]]:
        """Release up to ``slots`` of the oldest waiting sessions.

        Returns ``(admitted, delays)`` where ``delays`` is a list of
        ``(delay_rounds, count)`` groups — one per drained arrival
        cohort — ready for batched histogram observation.
        """
        admitted = 0
        delays: list[tuple[int, int]] = []
        while self._queue and admitted < slots:
            arrival_round, count = self._queue[0]
            take = min(count, slots - admitted)
            delays.append((round_index - arrival_round, take))
            admitted += take
            if take == count:
                self._queue.popleft()
            else:
                self._queue[0][1] = count - take
        self._waiting -= admitted
        return admitted, delays

    def shed(self) -> list[RetryLater]:
        """One pacing response per session still waiting this round."""
        return [RetryLater(retry_after_rounds=1)] * self._waiting


@dataclass(frozen=True)
class LoadTestReport:
    """What one seeded load test did, for assertions, CLI and bench."""

    target_sessions: int
    rounds: int
    wall_seconds: float
    peak_active_sessions: int
    final_active_sessions: int
    waiting_at_end: int
    admission_delay_p50: float
    admission_delay_p99: float
    scale_ups: int
    scale_downs: int
    peak_workers: int
    final_workers: int
    byte_exact: bool
    verified_segments: int
    mismatched_segments: int
    exhausted_peers: tuple[int, ...]
    cohort_peers: int
    stats: LoadStats = field(default_factory=LoadStats)
    cluster_stats: ClusterStats = field(default_factory=ClusterStats)
    events: tuple[ScaleEvent, ...] = ()

    @property
    def rounds_per_s(self) -> float:
        """Sustained harness rounds per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.rounds / self.wall_seconds


def run_loadtest(
    *,
    target_sessions: int = 100_000,
    rounds: int = 200,
    seed: int = 0,
    spec: DeviceSpec = GTX280,
    scheme: EncodeScheme = EncodeScheme.TABLE_5,
    params: CodingParams | None = None,
    round_seconds: float = 1.0,
    mean_dwell_rounds: float = 16.0,
    arrivals: PoissonArrivals | None = None,
    num_segments: int = 64,
    zipf_exponent: float = 1.0,
    flash_crowds: tuple[FlashCrowd, ...] = (),
    churn: ChurnPlan | None = None,
    initial_workers: int = 2,
    autoscaler_config: AutoscalerConfig | None = None,
    admit_headroom: float = 1.0,
    sample_peers: int = 8,
    parallel: bool = False,
    max_cluster_pending_blocks: int | None = None,
) -> LoadTestReport:
    """Drive the cluster at ``target_sessions`` modelled sessions.

    The arrival process defaults to the Poisson rate that holds the
    modelled population at ``target_sessions`` in steady state
    (Little's law: ``rate = target / mean_dwell_rounds``); pass
    ``arrivals`` to override with a diurnal or custom process.  Each
    round, in order: traffic draw (arrivals, churn departures, flash
    factor), modelled service against the cost-model capacity,
    admission from the FIFO queue into the headroom (each admission's
    delay observed into the delay histogram), one autoscaler step on
    the round's utilization, then one real serve round for the sampled
    cohort.

    Everything derives from ``seed`` — arrival counts, segment draws,
    dwell times, churn, ring placement, coding coefficients — so two
    runs with equal arguments produce identical reports up to wall
    clock (the replay-determinism test strips the timing fields).

    Returns:
        A :class:`LoadTestReport`; ``byte_exact`` is True iff every
        cohort segment that completed decoded to its origin bytes and
        no cohort peer exhausted its retries.
    """
    if target_sessions < 1 or rounds < 1:
        raise ConfigurationError(
            "target_sessions and rounds must be >= 1, got "
            f"{target_sessions} and {rounds}"
        )
    if mean_dwell_rounds <= 0 or round_seconds <= 0:
        raise ConfigurationError(
            "mean_dwell_rounds and round_seconds must be positive"
        )
    if not 0 < admit_headroom <= 1.0:
        raise ConfigurationError(
            f"admit_headroom must be in (0, 1], got {admit_headroom}"
        )
    if sample_peers < 1:
        raise ConfigurationError("sample_peers must be >= 1")
    if params is None:
        params = CodingParams(num_blocks=32, block_size=1024)
    config = autoscaler_config or AutoscalerConfig()
    if not (
        config.min_workers <= initial_workers <= config.max_workers
    ):
        raise ConfigurationError(
            f"initial_workers {initial_workers} must lie in "
            f"[{config.min_workers}, {config.max_workers}]"
        )
    profile = MediaProfile(params=params)
    if arrivals is None:
        arrivals = PoissonArrivals(
            target_sessions / mean_dwell_rounds, seed=seed
        )
    generator = TrafficGenerator(
        arrivals,
        ZipfPopularity(num_segments, exponent=zipf_exponent, seed=seed),
        flash_crowds=flash_crowds,
        churn=churn,
    )

    # Deterministic capacity from the paper's cost model: coded blocks
    # one worker can emit per round, independent of host speed.
    per_worker_capacity = (
        encode_bandwidth(
            spec,
            scheme,
            num_blocks=params.num_blocks,
            block_size=params.block_size,
        )
        / params.block_size
        * round_seconds
    )
    per_session_demand = profile.blocks_per_second_per_peer * round_seconds

    stats = LoadStats()
    admission = AdmissionController()
    #: Admission delays in rounds: the autoscaler's windowed p99 and
    #: the report's p50/p99.
    h_delay = Histogram()

    # Modelled population: structure-of-arrays over active sessions.
    remaining = np.empty(0, dtype=np.float64)
    peak_active = 0

    cluster = ServingCluster(
        spec,
        profile,
        num_workers=initial_workers,
        scheme=scheme,
        seed=seed,
        parallel=parallel,
        max_cluster_pending_blocks=max_cluster_pending_blocks,
    )
    start = time.perf_counter()
    try:
        scaler = Autoscaler(cluster, config, admission_delay=h_delay)
        segments = make_workload_segments(num_segments, params, seed)
        for segment, _ in segments:
            cluster.publish(segment)

        # The sampled-truth cohort: real sessions on the real cluster.
        popularity = generator.popularity
        cohort = [
            ClientSession(cluster, peer_id, wire_version=VERSION2)
            for peer_id in range(sample_peers)
        ]
        cohort_targets = [
            deque(popularity.draw(1_000_000 + peer_id, rounds))
            for peer_id in range(sample_peers)
        ]
        verified = 0
        mismatched = 0
        exhausted: set[int] = set()
        for peer_id, session in enumerate(cohort):
            session.begin_segment(int(cohort_targets[peer_id].popleft()))

        peak_workers = cluster.num_workers
        # The sampled round: one step per harness round, under whatever
        # membership the autoscaler decided for it.
        sampled_rounds = drive(
            cluster,
            cohort,
            version=VERSION2,
            on_exhausted=lambda session, _: exhausted.add(session.peer_id),
            max_rounds=rounds,
        )
        for round_index in range(rounds):
            active = len(remaining)
            traffic = generator.draw(
                round_index, active_sessions=active
            )
            stats.arrivals += traffic.arrivals
            admission.offer(round_index, traffic.arrivals)

            # Churn: seeded departures leave mid-stream (their bytes
            # were served as they went; leaving is not loss).
            if traffic.departures and active:
                rng = np.random.default_rng([seed, 2, round_index])
                leave = min(traffic.departures, active)
                gone = rng.choice(active, size=leave, replace=False)
                keep = np.ones(active, dtype=bool)
                keep[gone] = False
                remaining = remaining[keep]
                stats.departures += leave
                active = len(remaining)

            # Modelled service against cost-model capacity: when demand
            # exceeds capacity every session progresses pro-rata slower
            # (a saturated server rations rounds, it does not fail).
            capacity = cluster.num_workers * per_worker_capacity
            demand = active * per_session_demand
            utilization = demand / capacity if capacity else float("inf")
            if active:
                service = per_session_demand * min(
                    1.0, capacity / demand
                )
                remaining -= service
                stats.blocks_modelled += service * active
                done = remaining <= 0
                completions = int(done.sum())
                if completions:
                    stats.completions += completions
                    remaining = remaining[~done]
                    active = len(remaining)

            # Admission into the headroom left after active demand.
            slots = int(
                max(
                    0.0,
                    capacity * admit_headroom / per_session_demand
                    - active,
                )
            )
            admitted, delay_groups = admission.admit(round_index, slots)
            if admitted:
                rng = np.random.default_rng([seed, 30, round_index])
                dwell = rng.exponential(
                    mean_dwell_rounds, size=admitted
                )
                joined = np.maximum(dwell, 1.0) * per_session_demand
                remaining = np.concatenate([remaining, joined])
                stats.admitted += admitted
                for delay, count in delay_groups:
                    h_delay.observe(float(delay), count)
            shed = admission.shed()
            stats.shed_responses += len(shed)

            active = len(remaining)
            peak_active = max(peak_active, active)
            stats.rounds += 1

            event = scaler.step(round_index, utilization)
            if event is not None:
                peak_workers = max(peak_workers, cluster.num_workers)

            # Sampled truth: one real round under whatever membership
            # the autoscaler just decided.
            flapping = (
                set(churn.flaps(round_index, range(sample_peers)))
                if churn is not None
                else set()
            )
            for peer_id in flapping:
                if peer_id in exhausted:
                    continue
                cluster.disconnect(peer_id)
                view = cluster.connect(peer_id)
                cohort[peer_id]._session = view
                stats.flaps += 1
            next(sampled_rounds, None)
            for peer_id, session in enumerate(cohort):
                if peer_id in exhausted or not session.complete:
                    continue
                _, origin = segments[session._segment_id]
                recovered = session.finish_segment(len(origin))
                if recovered.to_bytes() == origin:
                    verified += 1
                else:
                    mismatched += 1
                if cohort_targets[peer_id]:
                    session.begin_segment(int(cohort_targets[peer_id].popleft()))
        # Release the last round's frame views before the cluster closes.
        sampled_rounds.close()
        cluster_stats = cluster.stats.snapshot()
        final_workers = cluster.num_workers
        scaler_events = tuple(scaler.events)
        scale_ups = scaler.stats.scale_ups
        scale_downs = scaler.stats.scale_downs
    finally:
        cluster.close()
    wall_seconds = time.perf_counter() - start

    return LoadTestReport(
        target_sessions=target_sessions,
        rounds=stats.rounds,
        wall_seconds=wall_seconds,
        peak_active_sessions=peak_active,
        final_active_sessions=len(remaining),
        waiting_at_end=admission.waiting,
        admission_delay_p50=h_delay.quantile(0.50),
        admission_delay_p99=h_delay.quantile(0.99),
        scale_ups=scale_ups,
        scale_downs=scale_downs,
        peak_workers=peak_workers,
        final_workers=final_workers,
        byte_exact=not exhausted and mismatched == 0 and verified > 0,
        verified_segments=verified,
        mismatched_segments=mismatched,
        exhausted_peers=tuple(sorted(exhausted)),
        cohort_peers=sample_peers,
        stats=stats.snapshot(),
        cluster_stats=cluster_stats,
        events=scaler_events,
    )
