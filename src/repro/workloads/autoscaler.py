"""Metrics-driven elastic scaling for the sharded serving cluster.

The PR 5 consistent-hash ring made worker membership cheap to change —
removing a worker moves only its segments, and
:meth:`~repro.cluster.router.ClusterRouter.expand` gives joins the same
minimal-disruption bound — so scaling policy reduces to *when*, not
*how*.  The :class:`Autoscaler` answers "when" from two inputs the load
harness hands it: each round's utilization, passed to
:meth:`~Autoscaler.step`, and the harness's admission-delay
:class:`~repro.obs.registry.Histogram`, whose windowed p99 it reads
from cumulative bucket deltas (no raw observations stored).  It applies
watermark hysteresis and drives
:meth:`~repro.cluster.cluster.ServingCluster.add_worker` /
:meth:`~repro.cluster.cluster.ServingCluster.remove_worker`.

Policy shape (classic control-loop guards, each one test-covered):

* **watermarks** — scale up above ``high_watermark`` utilization *or*
  when the windowed p99 admission delay exceeds ``max_delay_p99``;
  scale down below ``low_watermark`` only while delay is healthy.
* **sustain** — a breach must persist ``sustain_rounds`` consecutive
  rounds before acting (a one-round spike is noise, a flash crowd is
  not).
* **cooldown** — after any scale event, hold for ``cooldown_rounds``
  so the population can re-equilibrate before the next decision.
* **floors/ceilings** — never below ``min_workers`` (>= 1: the ring
  cannot empty while segments are placed — the scale-to-zero guard)
  and never above ``max_workers``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs.registry import Histogram, quantile_from_buckets
from repro.obs.stats import CumulativeStats


@dataclass(frozen=True)
class AutoscalerConfig:
    """Thresholds and guards for the scaling control loop.

    Attributes:
        high_watermark: utilization above which the cluster is
            considered saturated (fraction of total capacity).
        low_watermark: utilization below which capacity is idle enough
            to shed a worker.
        max_delay_p99: windowed p99 admission delay (rounds) above
            which the cluster scales up regardless of utilization.
        sustain_rounds: consecutive breached rounds required to act.
        cooldown_rounds: rounds to hold after any scale event.
        min_workers: hard floor (>= 1; the scale-to-zero guard).
        max_workers: hard ceiling (bounded by the wire's 128-id space).
    """

    high_watermark: float = 0.85
    low_watermark: float = 0.40
    max_delay_p99: float = 4.0
    sustain_rounds: int = 3
    cooldown_rounds: int = 5
    min_workers: int = 1
    max_workers: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.low_watermark < self.high_watermark:
            raise ConfigurationError(
                "watermarks must satisfy 0 < low < high, got "
                f"low={self.low_watermark} high={self.high_watermark}"
            )
        if self.max_delay_p99 <= 0:
            raise ConfigurationError("max_delay_p99 must be positive")
        if self.sustain_rounds < 1 or self.cooldown_rounds < 0:
            raise ConfigurationError(
                "sustain_rounds must be >= 1 and cooldown_rounds >= 0"
            )
        if self.min_workers < 1:
            raise ConfigurationError(
                "min_workers must be >= 1: the ring cannot scale to "
                "zero while segments are placed"
            )
        if self.max_workers < self.min_workers:
            raise ConfigurationError(
                f"max_workers {self.max_workers} must be >= "
                f"min_workers {self.min_workers}"
            )


@dataclass(frozen=True)
class ScaleEvent:
    """One acted scaling decision, for reports and exact accounting.

    Attributes:
        round_index: the round the decision fired.
        action: ``"up"`` or ``"down"``.
        worker_id: the worker added or removed.
        moved_segments: segments the ring re-placed for this event.
        utilization: the utilization reading that drove the decision.
        delay_p99: the windowed p99 admission delay at decision time.
    """

    round_index: int
    action: str
    worker_id: int
    moved_segments: int
    utilization: float
    delay_p99: float


@dataclass
class AutoscalerStats(CumulativeStats):
    """Cumulative scaling accounting (same contract as ClusterStats)."""

    decisions: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    holds_cooldown: int = 0
    holds_at_ceiling: int = 0
    holds_at_floor: int = 0


class Autoscaler:
    """Watches load and admission delay; grows and shrinks the ring.

    Args:
        cluster: the :class:`~repro.cluster.cluster.ServingCluster`
            (duck-typed: ``num_workers``, ``live_workers``,
            ``add_worker``, ``remove_worker``).
        config: thresholds and guards.
        admission_delay: the cumulative histogram of admission delays
            (rounds spent queued) to window.
    """

    def __init__(
        self,
        cluster,
        config: AutoscalerConfig | None = None,
        *,
        admission_delay: Histogram,
    ) -> None:
        self.cluster = cluster
        self.config = config or AutoscalerConfig()
        self._h_delay = admission_delay
        self.stats = AutoscalerStats()
        self.events: list[ScaleEvent] = []
        self._up_streak = 0
        self._down_streak = 0
        self._cooldown_until = -1
        self._window_buckets: dict[int, int] = self._h_delay.buckets()

    # -- metric windows ----------------------------------------------------

    def window_delay_p99(self) -> float:
        """p99 admission delay over observations since the last step.

        Computed from the delta of the cumulative histogram's buckets —
        the windowing trick :func:`~repro.obs.registry
        .quantile_from_buckets` exists for — so a long run's early calm
        cannot mask a current delay spike.
        """
        current = self._h_delay.buckets()
        window = {
            index: count - self._window_buckets.get(index, 0)
            for index, count in current.items()
            if count - self._window_buckets.get(index, 0) > 0
        }
        self._window_buckets = current
        return quantile_from_buckets(window, None, 0.99)

    # -- the control loop --------------------------------------------------

    def step(self, round_index: int, utilization: float) -> ScaleEvent | None:
        """One control-loop evaluation; acts at most once.

        Takes the round's ``utilization`` (demand over capacity),
        windows the delay histogram, updates the hysteresis streaks,
        and — if every guard passes — adds or removes exactly one
        worker.  Returns the acted :class:`ScaleEvent`, else ``None``.
        """
        config = self.config
        delay_p99 = self.window_delay_p99()
        self.stats.decisions += 1

        overloaded = (
            utilization > config.high_watermark
            or delay_p99 > config.max_delay_p99
        )
        idle = (
            utilization < config.low_watermark
            and delay_p99 <= config.max_delay_p99
        )
        self._up_streak = self._up_streak + 1 if overloaded else 0
        self._down_streak = self._down_streak + 1 if idle else 0

        if round_index < self._cooldown_until:
            if overloaded or idle:
                self.stats.holds_cooldown += 1
            return None

        if self._up_streak >= config.sustain_rounds:
            if self.cluster.num_workers >= config.max_workers:
                self.stats.holds_at_ceiling += 1
                return None
            return self._scale_up(round_index, utilization, delay_p99)
        if self._down_streak >= config.sustain_rounds:
            if self.cluster.num_workers <= config.min_workers:
                self.stats.holds_at_floor += 1
                return None
            return self._scale_down(round_index, utilization, delay_p99)
        return None

    def _scale_up(
        self, round_index: int, utilization: float, delay_p99: float
    ) -> ScaleEvent:
        worker_id = self.cluster.next_worker_id()
        moved = self.cluster.add_worker(worker_id)
        self.stats.scale_ups += 1
        return self._acted(
            round_index, "up", worker_id, len(moved), utilization, delay_p99
        )

    def _scale_down(
        self, round_index: int, utilization: float, delay_p99: float
    ) -> ScaleEvent:
        # Retire the newest member: the highest id is the one most
        # recently added in steady state, which keeps long-lived
        # workers' caches (and their ring arcs) stable.
        worker_id = max(self.cluster.live_workers)
        moved = self.cluster.remove_worker(worker_id)
        self.stats.scale_downs += 1
        return self._acted(
            round_index, "down", worker_id, len(moved), utilization, delay_p99
        )

    def _acted(
        self,
        round_index: int,
        action: str,
        worker_id: int,
        moved: int,
        utilization: float,
        delay_p99: float,
    ) -> ScaleEvent:
        self._up_streak = 0
        self._down_streak = 0
        self._cooldown_until = round_index + 1 + self.config.cooldown_rounds
        event = ScaleEvent(
            round_index=round_index,
            action=action,
            worker_id=worker_id,
            moved_segments=moved,
            utilization=utilization,
            delay_p99=delay_p99,
        )
        self.events.append(event)
        return event
