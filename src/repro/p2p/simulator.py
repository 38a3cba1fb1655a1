"""Round-based P2P content-distribution simulator.

Each simulation round, every directed edge ``(u, v)`` carries up to
``capacity`` blocks produced by ``u``'s strategy (coding or forwarding).
The simulator runs until every sink can reconstruct the segment (or a
round budget expires) and reports per-sink completion rounds, traffic
counts and the achieved rate relative to the min-cut bound — the
quantities the network-coding literature compares.

The round abstraction corresponds to one block-transmission time on a
unit-capacity link; a sink completing n blocks in ~n/2 rounds therefore
sustained rate 2, the butterfly's coding advantage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError
from repro.p2p.node import CodingNode, ForwardingNode
from repro.p2p.topology import multicast_capacity
from repro.rlnc.block import CodingParams, Segment


class Strategy(enum.Enum):
    """Distribution strategy run by every node."""

    CODING = "coding"
    FORWARDING = "forwarding"


@dataclass
class SimulationResult:
    """Outcome of one distribution run."""

    strategy: Strategy
    rounds: int
    completion_round: dict = field(default_factory=dict)
    blocks_sent: int = 0
    blocks_received: int = 0
    blocks_lost: int = 0
    innovative_received: int = 0
    all_sinks_complete: bool = False
    min_cut_bound: int | None = None

    @property
    def innovative_ratio(self) -> float:
        """Fraction of deliveries that raised a receiver's rank."""
        if self.blocks_received == 0:
            return 0.0
        return self.innovative_received / self.blocks_received

    def achieved_rate(self, num_blocks: int) -> float:
        """Blocks per round delivered to the slowest completed sink."""
        if not self.completion_round or not self.all_sinks_complete:
            return 0.0
        return num_blocks / max(self.completion_round.values())


class P2PSimulator:
    """Simulates segment distribution from one source to many sinks.

    Robustness knobs (the Sec. 2 claims random linear codes are prized
    for):

    * per-edge ``loss`` attributes (or the uniform ``edge_loss``
      argument) drop each transmitted block independently;
    * ``departures`` maps a node to the round after which it leaves the
      network (churn) — it stops emitting and receiving.
    """

    def __init__(
        self,
        graph: nx.DiGraph,
        params: CodingParams,
        *,
        source,
        sinks,
        strategy: Strategy,
        rng: np.random.Generator,
        segment: Segment | None = None,
        edge_loss: float = 0.0,
        departures: dict | None = None,
    ) -> None:
        if not 0.0 <= edge_loss < 1.0:
            raise ConfigurationError("edge loss must be in [0, 1)")
        if source not in graph:
            raise ConfigurationError(f"source {source!r} not in graph")
        for sink in sinks:
            if sink not in graph:
                raise ConfigurationError(f"sink {sink!r} not in graph")
        self.graph = graph
        self.params = params
        self.source = source
        self.sinks = list(sinks)
        self.strategy = strategy
        self._rng = rng
        self.edge_loss = edge_loss
        self.departures = dict(departures or {})
        if source in self.departures:
            raise ConfigurationError("the source cannot depart")
        self.segment = (
            segment
            if segment is not None
            else Segment.random(params, rng)
        )
        node_cls = (
            CodingNode if strategy is Strategy.CODING else ForwardingNode
        )
        self.nodes = {
            name: node_cls(
                name,
                params,
                rng,
                segment=self.segment if name == source else None,
            )
            for name in graph.nodes
        }

    def run(self, max_rounds: int = 10_000) -> SimulationResult:
        """Run rounds until all sinks complete or the budget expires."""
        result = SimulationResult(strategy=self.strategy, rounds=0)
        result.min_cut_bound = multicast_capacity(
            self.graph, self.source, self.sinks
        )
        for round_index in range(1, max_rounds + 1):
            self._run_round(result, round_index)
            result.rounds = round_index
            for sink in self.sinks:
                node = self.nodes[sink]
                if node.is_complete and sink not in result.completion_round:
                    result.completion_round[sink] = round_index
            if len(result.completion_round) == len(self.sinks):
                result.all_sinks_complete = True
                break
        return result

    def _departed(self, node, round_index: int) -> bool:
        leave_round = self.departures.get(node)
        return leave_round is not None and round_index > leave_round

    def _run_round(self, result: SimulationResult, round_index: int) -> None:
        # Emissions are computed from the *start-of-round* state (blocks
        # received this round are usable next round), which models one
        # store-and-forward hop of latency per link.
        outgoing = []
        for u, v, data in self.graph.edges(data=True):
            if self._departed(u, round_index) or self._departed(v, round_index):
                continue
            sender = self.nodes[u]
            loss = float(data.get("loss", self.edge_loss))
            for _ in range(int(data.get("capacity", 1))):
                block = sender.emit()
                if block is None:
                    continue
                result.blocks_sent += 1
                if loss and self._rng.random() < loss:
                    result.blocks_lost += 1
                    continue
                outgoing.append((v, block))
        for v, block in outgoing:
            receiver = self.nodes[v]
            if receiver.is_source:
                continue
            innovative = receiver.receive(block)
            result.blocks_received += 1
            if innovative:
                result.innovative_received += 1

    def recovered_segments(self) -> dict:
        """Decoded segment per completed sink (for verification)."""
        return {
            sink: self.nodes[sink].recover()
            for sink in self.sinks
            if self.nodes[sink].is_complete
        }


def run_simulation(
    graph: nx.DiGraph,
    params: CodingParams,
    *,
    source,
    sinks,
    strategy: Strategy = Strategy.CODING,
    seed: int = 0,
    max_rounds: int = 10_000,
    edge_loss: float = 0.0,
    departures: dict | None = None,
    segment: Segment | None = None,
) -> SimulationResult:
    """One seeded distribution run — the unified simulator entry point.

    Constructs the :class:`P2PSimulator` with the same deterministic
    seeding discipline as every other facade in the package
    (``default_rng(seed)`` for the run, ``default_rng(seed + 1)`` for
    the segment content, so two strategies compared at the same seed
    distribute identical data) and runs it to completion.  Callers
    needing the simulator object itself — recovered segments, node
    state — still construct :class:`P2PSimulator` directly.
    """
    rng = np.random.default_rng(seed)
    if segment is None:
        segment = Segment.random(params, np.random.default_rng(seed + 1))
    simulator = P2PSimulator(
        graph,
        params,
        source=source,
        sinks=sinks,
        strategy=strategy,
        rng=rng,
        segment=segment,
        edge_loss=edge_loss,
        departures=departures,
    )
    return simulator.run(max_rounds=max_rounds)


def strategy_showdown(
    graph: nx.DiGraph,
    params: CodingParams,
    *,
    source,
    sinks,
    seed: int = 0,
    max_rounds: int = 10_000,
    edge_loss: float = 0.0,
    departures: dict | None = None,
) -> dict[Strategy, SimulationResult]:
    """Run both strategies on identical inputs and return their results.

    Each strategy gets the same seed, the same segment content and the
    same loss/churn schedule, so the comparison isolates exactly the
    coding-vs-forwarding decision — the butterfly's factor-2 advantage
    and its lossy-network robustness both fall out of this one call.
    """
    return {
        strategy: run_simulation(
            graph,
            params,
            source=source,
            sinks=sinks,
            strategy=strategy,
            seed=seed,
            max_rounds=max_rounds,
            edge_loss=edge_loss,
            departures=departures,
        )
        for strategy in Strategy
    }
