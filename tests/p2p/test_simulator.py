"""Tests for the P2P distribution simulator: the coding advantage."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.p2p import (
    P2PSimulator,
    Strategy,
    butterfly,
    line,
    random_overlay,
    run_simulation,
    star,
    strategy_showdown,
)
from repro.rlnc import CodingParams, Segment


class TestButterflyAdvantage:
    """The foundational result: coding achieves the multicast bound the
    bottleneck denies to routing."""

    def test_coding_beats_forwarding_on_butterfly(self):
        params = CodingParams(16, 32)
        results = strategy_showdown(
            butterfly(), params, source="s", sinks=["t1", "t2"], seed=3
        )
        coding = results[Strategy.CODING]
        forwarding = results[Strategy.FORWARDING]
        assert coding.all_sinks_complete
        assert forwarding.all_sinks_complete
        assert max(coding.completion_round.values()) < max(
            forwarding.completion_round.values()
        )

    def test_coding_rate_approaches_min_cut(self):
        params = CodingParams(32, 16)
        rng = np.random.default_rng(0)
        simulator = P2PSimulator(
            butterfly(),
            params,
            source="s",
            sinks=["t1", "t2"],
            strategy=Strategy.CODING,
            rng=rng,
        )
        result = simulator.run()
        assert result.min_cut_bound == 2
        # Rate 2 minus pipeline-fill latency across the 3-hop paths.
        assert result.achieved_rate(32) > 1.5

    def test_coding_deliveries_are_mostly_innovative(self):
        params = CodingParams(16, 16)
        results = strategy_showdown(
            butterfly(), params, source="s", sinks=["t1", "t2"], seed=5
        )
        assert results[Strategy.CODING].innovative_ratio > 0.85
        assert (
            results[Strategy.FORWARDING].innovative_ratio
            < results[Strategy.CODING].innovative_ratio
        )

    def test_decoded_content_is_exact(self):
        params = CodingParams(8, 16)
        segment = Segment.random(params, np.random.default_rng(1))
        simulator = P2PSimulator(
            butterfly(),
            params,
            source="s",
            sinks=["t1", "t2"],
            strategy=Strategy.CODING,
            rng=np.random.default_rng(2),
            segment=segment,
        )
        simulator.run()
        for recovered in simulator.recovered_segments().values():
            assert np.array_equal(recovered.blocks, segment.blocks)


class TestOtherTopologies:
    def test_relay_chain_delivers(self):
        params = CodingParams(8, 8)
        simulator = P2PSimulator(
            line(4),
            params,
            source=0,
            sinks=[4],
            strategy=Strategy.CODING,
            rng=np.random.default_rng(3),
        )
        result = simulator.run()
        assert result.all_sinks_complete
        # n blocks over a 4-hop unit chain: n + pipeline-fill rounds.
        assert result.completion_round[4] >= 8 + 3

    def test_star_serves_every_client(self):
        params = CodingParams(4, 8)
        simulator = P2PSimulator(
            star(5),
            params,
            source="server",
            sinks=[f"client{i}" for i in range(5)],
            strategy=Strategy.CODING,
            rng=np.random.default_rng(4),
        )
        result = simulator.run()
        assert result.all_sinks_complete
        assert max(result.completion_round.values()) <= 6

    def test_random_overlay_completes_with_coding(self):
        params = CodingParams(8, 8)
        graph = random_overlay(10, 3, np.random.default_rng(5))
        simulator = P2PSimulator(
            graph,
            params,
            source="source",
            sinks=list(range(10)),
            strategy=Strategy.CODING,
            rng=np.random.default_rng(6),
        )
        result = simulator.run(max_rounds=500)
        assert result.all_sinks_complete

    def test_round_budget_respected(self):
        params = CodingParams(64, 8)
        simulator = P2PSimulator(
            line(2),
            params,
            source=0,
            sinks=[2],
            strategy=Strategy.CODING,
            rng=np.random.default_rng(7),
        )
        result = simulator.run(max_rounds=5)
        assert result.rounds == 5
        assert not result.all_sinks_complete
        assert result.achieved_rate(64) == 0.0


class TestUnifiedEntryPoints:
    def test_run_simulation_matches_direct_construction(self):
        params = CodingParams(8, 16)
        via_facade = run_simulation(
            butterfly(), params, source="s", sinks=["t1", "t2"], seed=9
        )
        segment = Segment.random(params, np.random.default_rng(10))
        direct = P2PSimulator(
            butterfly(),
            params,
            source="s",
            sinks=["t1", "t2"],
            strategy=Strategy.CODING,
            rng=np.random.default_rng(9),
            segment=segment,
        ).run()
        assert via_facade.rounds == direct.rounds
        assert via_facade.completion_round == direct.completion_round
        assert via_facade.blocks_sent == direct.blocks_sent

    def test_showdown_runs_both_strategies_on_identical_inputs(self):
        params = CodingParams(8, 16)
        results = strategy_showdown(
            butterfly(), params, source="s", sinks=["t1", "t2"], seed=4
        )
        assert set(results) == set(Strategy)
        for strategy, result in results.items():
            assert result.strategy is strategy


class TestValidation:
    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigurationError):
            P2PSimulator(
                butterfly(),
                CodingParams(4, 4),
                source="nope",
                sinks=["t1"],
                strategy=Strategy.CODING,
                rng=np.random.default_rng(0),
            )

    def test_unknown_sink_rejected(self):
        with pytest.raises(ConfigurationError):
            P2PSimulator(
                butterfly(),
                CodingParams(4, 4),
                source="s",
                sinks=["nope"],
                strategy=Strategy.CODING,
                rng=np.random.default_rng(0),
            )
