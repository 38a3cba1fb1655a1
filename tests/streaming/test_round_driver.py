"""The one round driver: both modes, exhaustion and the round bound.

:func:`repro.streaming.rounds.drive` is the loop every fetch runs
through — ``fetch_segment``, ``drive_sessions``, the multicast tree,
both pipeline modes and both harnesses.  These tests pin its contract
directly: lock-step and pipelined drives of the same lossless demand
move identical bytes on every in-process substrate, an exhausted
receiver leaves the round without stopping it (whichever step raised),
and the round bound is a hard stop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ServingCluster
from repro.errors import RetryExhaustedError
from repro.faults import FaultPlan
from repro.gpu import GTX280
from repro.multicast import compare_modes
from repro.rlnc import CodingParams, Segment
from repro.rlnc.wire import VERSION, VERSION2
from repro.streaming import ClientSession, MediaProfile, StreamingServer
from repro.streaming.rounds import drive
from tests.cluster.conftest import capped_workers

PROFILE = MediaProfile(params=CodingParams(16, 64))


def published_server(segments=1, **kwargs):
    server = StreamingServer(GTX280, PROFILE, rng=np.random.default_rng(0), **kwargs)
    originals = []
    for segment_id in range(segments):
        segment = Segment.random(
            PROFILE.params, np.random.default_rng(segment_id + 1), segment_id=segment_id
        )
        server.publish(segment)
        originals.append(segment)
    return server, originals


def started(server, peers, segment_id=0, **kwargs):
    sessions = [ClientSession(server, peer, **kwargs) for peer in peers]
    for session in sessions:
        session.begin_segment(segment_id)
    return sessions


class GivesUp(ClientSession):
    """A session whose ask always finds its retry budget spent."""

    def pre_round(self):
        raise RetryExhaustedError(f"peer {self.peer_id} gave up")


class TestModesAgree:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        substrate=st.sampled_from(["server", "cluster"]),
        peers=st.integers(1, 6),
        n=st.sampled_from([4, 8, 16]),
        quota=st.one_of(st.none(), st.integers(1, 8)),
        version=st.sampled_from([VERSION, VERSION2]),
        checksum=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_lockstep_and_pipelined_move_the_same_bytes(
        self, substrate, peers, n, quota, version, checksum, seed
    ):
        params = CodingParams(n, 64)
        profile = MediaProfile(params=params)
        segment = Segment.random(params, np.random.default_rng(seed))

        def make_endpoint():
            if substrate == "server":
                endpoint = StreamingServer(
                    GTX280,
                    profile,
                    rng=np.random.default_rng(seed),
                    per_peer_round_quota=quota,
                )
            else:
                endpoint = ServingCluster(
                    GTX280,
                    profile,
                    num_workers=capped_workers(2),
                    seed=seed,
                    per_peer_round_quota=quota,
                )
            endpoint.publish(segment)
            return endpoint

        lockstep, pipelined = compare_modes(
            make_endpoint,
            range(peers),
            segment,
            quota=quota,
            checksum=checksum,
            version=version,
            timeline=False,
        )
        assert pipelined.wire_sha256 == lockstep.wire_sha256
        assert pipelined.payload_sha256 == lockstep.payload_sha256
        assert pipelined.rounds == lockstep.rounds
        assert len(lockstep.traces) == lockstep.rounds


class TestLoop:
    def test_yields_each_served_round_and_stops_at_completion(self):
        server, [segment] = published_server(per_peer_round_quota=4)
        sessions = started(server, range(3))
        yielded = [dict(frames) for frames in drive(server, sessions)]
        assert len(yielded) == 4  # ceil(16 / 4): no round past completion
        assert server.stats.rounds_served == 4
        assert all(sorted(frames) == [0, 1, 2] for frames in yielded)
        for session in sessions:
            assert session.finish_segment().to_bytes() == segment.to_bytes()

    def test_a_body_that_starts_the_next_segment_keeps_the_receiver(self):
        server, originals = published_server(segments=2)
        [session] = started(server, [7])
        fetched = []
        for _ in drive(server, [session]):
            if session.complete:
                fetched.append(session.finish_segment().to_bytes())
                if len(fetched) < len(originals):
                    session.begin_segment(len(fetched))
        assert fetched == [segment.to_bytes() for segment in originals]

    def test_pipelined_frames_outlive_the_next_round(self):
        server, _ = published_server(per_peer_round_quota=4)
        sessions = started(server, range(2))
        rounds = list(drive(server, sessions, pipelined=True))
        assert len(rounds) == 4
        assert all(
            isinstance(data, bytes) for frames in rounds for data in frames.values()
        )
        assert all(session.complete for session in sessions)


class TestExhaustion:
    def test_pre_round_exhaustion_drops_the_receiver(self):
        server, [segment] = published_server()
        sessions = started(server, range(2))
        quitter = GivesUp(server, 2)
        quitter.begin_segment(0)
        dropped = []
        for _ in drive(
            server,
            [sessions[0], quitter, sessions[1]],
            on_exhausted=lambda receiver, error: dropped.append((receiver, str(error))),
        ):
            pass
        assert dropped == [(quitter, "peer 2 gave up")]
        assert quitter.stats.rounds == 0  # never received a round
        for session in sessions:
            assert session.finish_segment().to_bytes() == segment.to_bytes()

    def test_receive_exhaustion_drops_the_receiver(self):
        server, [segment] = published_server(per_peer_round_quota=4)
        sessions = started(server, range(2))
        [deaf] = started(
            server, [2], fault_plan=FaultPlan(seed=1, drop_rate=1.0), max_retries=1
        )
        dropped = []
        counted_after = []
        for _ in drive(
            server,
            [sessions[0], deaf, sessions[1]],
            on_exhausted=lambda receiver, error: dropped.append(receiver),
        ):
            if dropped:
                counted_after.append(deaf.stats.rounds)
        assert dropped == [deaf]
        # Out of the round once exhausted: never asked or counted again,
        # while the others' rounds go on.
        assert len(counted_after) > 1 and len(set(counted_after)) == 1
        assert not deaf.complete
        for session in sessions:
            assert session.finish_segment().to_bytes() == segment.to_bytes()

    def test_without_a_handler_pre_round_exhaustion_propagates(self):
        server, _ = published_server()
        [session] = started(server, [0])
        quitter = GivesUp(server, 1)
        quitter.begin_segment(0)
        with pytest.raises(RetryExhaustedError, match="peer 1 gave up"):
            list(drive(server, [session, quitter]))

    def test_without_a_handler_receive_exhaustion_propagates(self):
        server, _ = published_server()
        [deaf] = started(
            server, [0], fault_plan=FaultPlan(seed=1, drop_rate=1.0), max_retries=1
        )
        with pytest.raises(RetryExhaustedError, match="no progress"):
            list(drive(server, [deaf]))


class TestRoundBound:
    @pytest.mark.parametrize("pipelined", [False, True])
    def test_max_rounds_is_a_hard_stop(self, pipelined):
        server, _ = published_server(per_peer_round_quota=4)
        sessions = started(server, range(2))
        served = []
        with pytest.raises(RetryExhaustedError, match="incomplete after 2 rounds"):
            for frames in drive(server, sessions, pipelined=pipelined, max_rounds=2):
                served.append(frames)
        # A pipelined drive allows two loop steps per round of budget.
        assert len(served) == (4 if pipelined else 2)
        assert not any(session.complete for session in sessions)

    def test_enough_rounds_do_not_raise(self):
        server, _ = published_server(per_peer_round_quota=4)
        sessions = started(server, range(2))
        assert len(list(drive(server, sessions, max_rounds=4))) == 4
