"""P2P content distribution on the network-coding codec.

Topology builders (butterfly, overlays, multicast distribution trees),
node strategies (coding vs store-and-forward), and a round-based
distribution simulator measuring time-to-decode against the min-cut
multicast bound.  The unified entry points are :func:`run_simulation`
(one seeded run) and :func:`strategy_showdown` (coding vs forwarding on
identical inputs).
"""

from repro.p2p.metrics import (
    CodingAdvantage,
    DistributionStats,
    ExperimentSummary,
    coding_advantage,
    run_experiment,
)
from repro.p2p.node import CodingNode, ForwardingNode
from repro.p2p.simulator import (
    P2PSimulator,
    SimulationResult,
    Strategy,
    run_simulation,
    strategy_showdown,
)
from repro.p2p.topology import (
    BUTTERFLY_SINKS,
    BUTTERFLY_SOURCE,
    butterfly,
    distribution_tree,
    line,
    min_cut_to,
    multicast_capacity,
    random_overlay,
    star,
)

__all__ = [
    "BUTTERFLY_SINKS",
    "BUTTERFLY_SOURCE",
    "CodingAdvantage",
    "CodingNode",
    "DistributionStats",
    "ExperimentSummary",
    "ForwardingNode",
    "P2PSimulator",
    "SimulationResult",
    "Strategy",
    "butterfly",
    "coding_advantage",
    "distribution_tree",
    "line",
    "min_cut_to",
    "multicast_capacity",
    "random_overlay",
    "run_experiment",
    "run_simulation",
    "star",
    "strategy_showdown",
]
