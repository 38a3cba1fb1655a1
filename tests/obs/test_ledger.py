"""One counter ledger: each component counts in its stats object only.

A serving run leaves no shared metric state behind, on every
substrate: a component's ``stats_snapshot()`` (or ``stats.series()``)
is its export, and the one process-wide observability object, the
tracer, keeps only span timings (none here: tracing is off).  Because a
worker process ships its server's snapshot over the pipe, a serial and
a parallel cluster given the same seeded work export the same counters.
"""

import numpy as np
import pytest

from repro.cluster import ServingCluster, SupervisorConfig
from repro.faults import FaultPlan
from repro.gpu import GTX280
from repro.multicast import MulticastTree
from repro.obs.trace import get_tracer
from repro.rlnc import CodingParams, Segment
from repro.streaming import ClientSession, MediaProfile, StreamingServer, drive_sessions
from tests.cluster.conftest import capped_workers

pytestmark = pytest.mark.timeout(120)

PROFILE = MediaProfile(params=CodingParams(8, 64))
SEGMENTS = 2
PEERS = 4


@pytest.fixture
def tracer():
    """The process tracer, cleared before and after the test."""
    tracer = get_tracer()
    tracer.clear()
    yield tracer
    tracer.clear()


def segments():
    return [
        Segment.random(PROFILE.params, np.random.default_rng(seed), segment_id=seed)
        for seed in range(SEGMENTS)
    ]


def fetch_all(endpoint):
    """Publish the seeded segments and fetch each with lossy sessions;
    returns the sessions."""
    for segment in segments():
        endpoint.publish(segment)
    sessions = [
        ClientSession(
            endpoint, peer_id, fault_plan=FaultPlan(seed=peer_id, drop_rate=0.2)
        )
        for peer_id in range(PEERS)
    ]
    for segment_id in range(SEGMENTS):
        for session in sessions:
            session.begin_segment(segment_id)
        drive_sessions(endpoint, sessions)
        for session in sessions:
            session.finish_segment()
    return sessions


def server_run():
    server = StreamingServer(GTX280, PROFILE, rng=np.random.default_rng(3))
    sessions = fetch_all(server)
    return server.stats_snapshot(), sessions


def relay_tree_run():
    first = segments()[0]
    root = StreamingServer(GTX280, PROFILE, rng=np.random.default_rng(3))
    root.publish(first)
    tree = MulticastTree(
        root,
        PROFILE,
        relays=2,
        leaves_per_relay=2,
        seed=5,
        leaf_fault_plans={(0, 0): FaultPlan(seed=1, drop_rate=0.2)},
    )
    assert tree.distribute(first).payload_ok
    return tree.relays[0].stats_snapshot(), tree.leaf_sessions


def cluster_run(parallel, supervised=False):
    with ServingCluster(
        GTX280,
        PROFILE,
        num_workers=capped_workers(2),
        seed=7,
        parallel=parallel,
        supervision=SupervisorConfig() if supervised else None,
    ) as cluster:
        sessions = fetch_all(cluster)
        return cluster.stats_snapshot(), sessions


RUNS = {
    "server": server_run,
    "relay_tree": relay_tree_run,
    "serial_cluster": lambda: cluster_run(False),
    "supervised_parallel_cluster": lambda: cluster_run(True, supervised=True),
}


class TestRegistryHoldsNoComponentCounters:
    @pytest.mark.parametrize("run", list(RUNS), ids=list(RUNS))
    def test_serving_run_leaves_no_component_series(self, tracer, run):
        snapshot, sessions = RUNS[run]()
        assert tracer.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        # The ledgers did count: the export is where the counters are.
        assert any(value > 0 for value in snapshot["counters"].values())
        client = sessions[0].stats.series("client")["counters"]
        assert client["client_segments_completed"] >= 1
        assert client["client_wire_frames_ok"] > 0


class TestSubstratesExportOneLedger:
    def test_serial_and_parallel_counters_agree(self):
        serial, serial_sessions = cluster_run(False)
        parallel, parallel_sessions = cluster_run(True)
        # Pipe bytes are the one series only the parallel substrate has.
        pipe = {"cluster_control_bytes_received", "cluster_control_bytes_sent"}
        assert pipe <= set(parallel["counters"])
        counters = {
            key: value
            for key, value in parallel["counters"].items()
            if key not in pipe
        }
        assert serial["counters"] == counters
        assert serial["counters"]['server_blocks_served{worker="0"}'] > 0
        assert [s.stats for s in serial_sessions] == [
            s.stats for s in parallel_sessions
        ]
