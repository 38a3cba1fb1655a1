"""P2P content distribution: network coding vs store-and-forward.

Demonstrates the foundational advantage the paper builds on (Sec. 1):
on the butterfly network, coding at the bottleneck delivers both sinks
at the min-cut rate, while routing cannot; on a random Avalanche-style
overlay, coded deliveries stay almost always innovative.

Uses the unified simulator entry points — :func:`strategy_showdown` for
the head-to-head and :func:`run_simulation` for a single seeded run.

Run:
    python examples/p2p_distribution.py
"""

import numpy as np

from repro.p2p import (
    Strategy,
    butterfly,
    multicast_capacity,
    random_overlay,
    run_simulation,
    strategy_showdown,
)
from repro.rlnc import CodingParams


def run_butterfly() -> None:
    graph = butterfly()
    params = CodingParams(num_blocks=32, block_size=64)
    bound = multicast_capacity(graph, "s", ["t1", "t2"])
    print(f"butterfly: min-cut multicast bound = {bound} blocks/round")

    results = strategy_showdown(
        graph, params, source="s", sinks=["t1", "t2"], seed=42
    )
    for strategy, result in results.items():
        finish = max(result.completion_round.values())
        print(f"  {strategy.value:>10}: both sinks complete at round "
              f"{finish:>3}, rate {result.achieved_rate(32):.2f} "
              f"blocks/round, innovative ratio "
              f"{result.innovative_ratio:.0%}")
    coding = results[Strategy.CODING]
    forwarding = results[Strategy.FORWARDING]
    speedup = max(forwarding.completion_round.values()) / max(
        coding.completion_round.values()
    )
    print(f"  coding finishes {speedup:.1f}x sooner")


def run_overlay() -> None:
    rng = np.random.default_rng(3)
    graph = random_overlay(peers=16, out_degree=3, rng=rng)
    params = CodingParams(num_blocks=16, block_size=64)
    result = run_simulation(
        graph,
        params,
        source="source",
        sinks=list(range(16)),
        strategy=Strategy.CODING,
        seed=4,
        max_rounds=300,
    )
    print(f"\nrandom overlay (16 peers, out-degree 3): all peers decoded "
          f"by round {max(result.completion_round.values())}")
    print(f"  {result.blocks_sent} blocks sent, innovative ratio "
          f"{result.innovative_ratio:.0%}")


if __name__ == "__main__":
    run_butterfly()
    run_overlay()
