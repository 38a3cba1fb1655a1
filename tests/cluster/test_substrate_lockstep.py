"""A serial and a parallel cluster driven in lockstep by random programs.

Both substrates serve rounds through one dispatch/collect path, so any
interleaving of publishes, connects, asks, rounds (plain or split into
``begin_round``/``collect_round``) and membership changes
(kill, add, remove) must leave them indistinguishable: the same bytes
delivered to every peer, and the same blocks pending per peer.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ServingCluster
from repro.gpu import GTX280
from repro.rlnc import VERSION2, CodingParams, Segment
from repro.streaming import MediaProfile
from tests.cluster.conftest import capped_workers

pytestmark = pytest.mark.timeout(300)

PROFILE = MediaProfile(params=CodingParams(8, 64))
SEED = 11
START_WORKERS = capped_workers(2)
MAX_WORKERS = capped_workers(3)
MAX_SEGMENTS = 4
PEERS = range(3)


def _outcome(call):
    """A call's result, or its exception's type and message."""
    try:
        return call()
    except Exception as exc:  # compared across substrates, not handled
        return (type(exc), str(exc))


class LockstepClusters(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.serial = ServingCluster(
            GTX280, PROFILE, num_workers=START_WORKERS, seed=SEED
        )
        self.parallel = ServingCluster(
            GTX280,
            PROFILE,
            num_workers=START_WORKERS,
            seed=SEED,
            parallel=True,
        )
        self.segments: list[int] = []
        self.views: dict[int, tuple] = {}

    def both(self, call):
        """Run ``call`` on each cluster; both must agree on the outcome."""
        serial = _outcome(lambda: call(self.serial))
        parallel = _outcome(lambda: call(self.parallel))
        assert serial == parallel
        return serial

    @precondition(lambda self: len(self.segments) < MAX_SEGMENTS)
    @rule()
    def publish(self):
        segment_id = len(self.segments)
        segment = Segment.random(
            PROFILE.params,
            np.random.default_rng(segment_id),
            segment_id=segment_id,
        )
        self.both(lambda c: c.publish(segment))
        self.segments.append(segment_id)

    @rule(peer=st.sampled_from(PEERS))
    def connect(self, peer):
        self.views[peer] = (self.serial.connect(peer), self.parallel.connect(peer))

    @precondition(lambda self: self.views and self.segments)
    @rule(data=st.data(), count=st.integers(1, 10))
    def request(self, data, count):
        peer = data.draw(st.sampled_from(sorted(self.views)))
        segment_id = data.draw(st.sampled_from(self.segments))
        self.both(lambda c: c.request_blocks(peer, segment_id, count))

    @rule(split=st.booleans())
    def round(self, split):
        def serve(cluster):
            if split:
                result = cluster.collect_round(cluster.begin_round(version=VERSION2))
            else:
                result = cluster.serve_round(version=VERSION2)
            return {peer: bytes(frames) for peer, frames in result.items()}

        self.both(serve)

    @precondition(lambda self: self.serial.num_workers >= 2)
    @rule(data=st.data())
    def kill_worker(self, data):
        victim = data.draw(st.sampled_from(self.serial.live_workers))
        self.both(lambda c: c.kill_worker(victim))

    @precondition(lambda self: self.serial.num_workers < MAX_WORKERS)
    @rule()
    def add_worker(self):
        self.both(lambda c: c.add_worker())

    @precondition(lambda self: self.serial.num_workers >= 2)
    @rule(data=st.data())
    def remove_worker(self, data):
        leaver = data.draw(st.sampled_from(self.serial.live_workers))
        self.both(lambda c: c.remove_worker(leaver))

    @invariant()
    def same_topology_and_pending(self):
        assert self.serial.live_workers == self.parallel.live_workers
        assert self.serial.placement() == self.parallel.placement()
        assert self.serial.pending_blocks == self.parallel.pending_blocks
        for serial_view, parallel_view in self.views.values():
            assert serial_view.blocks_pending == parallel_view.blocks_pending

    def teardown(self):
        self.parallel.close()


LockstepClusters.TestCase.settings = settings(
    max_examples=10,
    stateful_step_count=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSubstratesInLockstep = LockstepClusters.TestCase
