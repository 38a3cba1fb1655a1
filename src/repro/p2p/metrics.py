"""Multi-run P2P experiment statistics.

One simulation run is an anecdote; the coding-vs-routing comparison the
literature makes is statistical.  :func:`run_experiment` repeats a
distribution scenario across seeds and aggregates completion times,
traffic and innovation ratios into :class:`ExperimentSummary`, and
:func:`coding_advantage` boils two summaries down to the headline
speedup with its spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.stats import CumulativeStats
from repro.p2p.simulator import P2PSimulator, SimulationResult, Strategy
from repro.rlnc.block import CodingParams, Segment


@dataclass
class DistributionStats(CumulativeStats):
    """Cumulative accounting across p2p simulation runs.

    The p2p side's adoption of the explicit cumulative
    ``snapshot()/delta()/reset()`` contract every other stats object in
    the library honors (:class:`~repro.streaming.server.ServerStats`,
    :class:`~repro.streaming.client.SessionStats`,
    :class:`~repro.cluster.ClusterStats`,
    :class:`~repro.rlnc.wire.WireStats`): counters only grow as
    :meth:`record` absorbs :class:`SimulationResult` outcomes; nothing
    resets behind the caller's back.
    """

    runs: int = 0
    completed_runs: int = 0
    rounds: int = 0
    blocks_sent: int = 0
    blocks_received: int = 0
    blocks_lost: int = 0
    innovative_received: int = 0

    def record(self, result: SimulationResult) -> None:
        """Absorb one run's outcome into the cumulative totals."""
        self.runs += 1
        if result.all_sinks_complete:
            self.completed_runs += 1
        self.rounds += result.rounds
        self.blocks_sent += result.blocks_sent
        self.blocks_received += result.blocks_received
        self.blocks_lost += result.blocks_lost
        self.innovative_received += result.innovative_received

    @property
    def innovative_ratio(self) -> float:
        """Fraction of all deliveries that raised a receiver's rank."""
        if self.blocks_received == 0:
            return 0.0
        return self.innovative_received / self.blocks_received


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregates over repeated runs of one scenario."""

    strategy: Strategy
    runs: int
    completed_runs: int
    mean_completion_round: float
    p95_completion_round: float
    mean_innovative_ratio: float
    mean_blocks_sent: float

    @property
    def completion_rate(self) -> float:
        return self.completed_runs / self.runs if self.runs else 0.0


def run_experiment(
    graph_builder,
    params: CodingParams,
    *,
    source,
    sinks,
    strategy: Strategy,
    seeds: list[int],
    max_rounds: int = 2000,
    edge_loss: float = 0.0,
    stats: DistributionStats | None = None,
) -> ExperimentSummary:
    """Run one scenario across seeds and summarize.

    Args:
        graph_builder: zero-argument callable returning a fresh topology
            (rebuilt per run so random overlays vary with the seed when
            the builder closes over its own rng).
        stats: optional cumulative :class:`DistributionStats` that every
            run's outcome is recorded into (the caller keeps it across
            experiments and phases it with ``snapshot()/delta()``).
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    finishes, ratios, sent = [], [], []
    completed = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        segment = Segment.random(params, np.random.default_rng(seed + 1))
        simulator = P2PSimulator(
            graph_builder(),
            params,
            source=source,
            sinks=sinks,
            strategy=strategy,
            rng=rng,
            segment=segment,
            edge_loss=edge_loss,
        )
        result: SimulationResult = simulator.run(max_rounds=max_rounds)
        if stats is not None:
            stats.record(result)
        ratios.append(result.innovative_ratio)
        sent.append(result.blocks_sent)
        if result.all_sinks_complete:
            completed += 1
            finishes.append(max(result.completion_round.values()))
    if finishes:
        mean_finish = float(np.mean(finishes))
        p95_finish = float(np.percentile(finishes, 95))
    else:
        mean_finish = p95_finish = float("inf")
    return ExperimentSummary(
        strategy=strategy,
        runs=len(seeds),
        completed_runs=completed,
        mean_completion_round=mean_finish,
        p95_completion_round=p95_finish,
        mean_innovative_ratio=float(np.mean(ratios)),
        mean_blocks_sent=float(np.mean(sent)),
    )


@dataclass(frozen=True)
class CodingAdvantage:
    """Headline comparison between coding and a baseline strategy."""

    speedup_mean: float
    speedup_p95: float
    traffic_ratio: float

    @property
    def coding_wins(self) -> bool:
        return self.speedup_mean > 1.0


def coding_advantage(
    coding: ExperimentSummary, baseline: ExperimentSummary
) -> CodingAdvantage:
    """Summarize how much faster coding finished than the baseline."""
    if coding.strategy is not Strategy.CODING:
        raise ConfigurationError("first summary must be the coding run")
    return CodingAdvantage(
        speedup_mean=baseline.mean_completion_round
        / coding.mean_completion_round,
        speedup_p95=baseline.p95_completion_round
        / coding.p95_completion_round,
        traffic_ratio=baseline.mean_blocks_sent / coding.mean_blocks_sent,
    )
