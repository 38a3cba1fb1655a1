"""Tests for the multiprocess cluster substrate.

What "true parallel execution" must prove, beyond the serial suite:

* byte-exactness — the process substrate emits byte-identical frames
  (and equal batches) to the in-process reference, round for round;
* the control/data split — no payload bytes ever cross the command
  pipes (asserted by instrumenting the IPC channel);
* real failover — ``kill_worker`` fells an actual OS process and the
  NACK path still finishes every session byte-exactly;
* hygiene — shared-memory rings are always released, clusters close
  idempotently, and parent-side session mirrors match worker truth.
"""

import os
import pickle

import numpy as np
import pytest

from repro.cluster import BlockRing, ServingCluster, run_cluster_workload
from repro.errors import (
    CapacityError,
    ConfigurationError,
    RetryLater,
    WorkerCrashError,
)
from repro.faults import WorkerKillPlan
from repro.gpu import GTX280
from repro.rlnc import VERSION2, CodingParams, Segment, frame_sequence
from repro.streaming import MediaProfile
from tests.cluster.conftest import capped_workers

pytestmark = pytest.mark.timeout(120)

SMALL_PROFILE = MediaProfile(params=CodingParams(8, 64))


def make_pair(num_workers=2, seed=7, **kwargs):
    """A serial and a parallel cluster with identical configuration."""
    num_workers = capped_workers(num_workers)
    serial = ServingCluster(
        GTX280, SMALL_PROFILE, num_workers=num_workers, seed=seed, **kwargs
    )
    parallel = ServingCluster(
        GTX280,
        SMALL_PROFILE,
        num_workers=num_workers,
        seed=seed,
        parallel=True,
        **kwargs,
    )
    return serial, parallel


def make_segment(segment_id=0, seed=1, profile=SMALL_PROFILE):
    return Segment.random(
        profile.params, np.random.default_rng(seed), segment_id=segment_id
    )


def publish_many(cluster, count):
    for i in range(count):
        cluster.publish(make_segment(i, seed=100 + i))


class TestByteExactness:
    def test_frames_are_byte_identical_to_the_serial_substrate(self):
        serial, parallel = make_pair()
        with parallel, serial:
            for cluster in (serial, parallel):
                publish_many(cluster, 4)
                for peer in range(3):
                    cluster.connect(peer)
            for _ in range(3):
                for cluster in (serial, parallel):
                    for peer in range(3):
                        for segment in range(4):
                            cluster.request_blocks(peer, segment, 2)
                a = serial.serve_round(format="frames", version=VERSION2)
                b = parallel.serve_round(format="frames", version=VERSION2)
                assert a.keys() == b.keys()
                for peer in a:
                    assert bytes(a[peer]) == bytes(b[peer])

    def test_v1_rounds_do_not_disturb_wire_sequences(self):
        # Version-1 frames carry no sequence, so a v1 round leaves every
        # session's tx_sequence where it was: the next v2 round starts at
        # sequence 0 on both substrates.
        serial, parallel = make_pair()
        with parallel, serial:
            for cluster in (serial, parallel):
                publish_many(cluster, 2)
                cluster.connect(1)
                cluster.request_blocks(1, 0, 2)
                cluster.serve_round()
                cluster.request_blocks(1, 0, 2)
            a = serial.serve_round(format="frames", version=VERSION2)
            b = parallel.serve_round(format="frames", version=VERSION2)
            assert bytes(a[1]) == bytes(b[1])
            assert frame_sequence(bytes(a[1])) == 0

    def test_workload_reports_match_across_substrates(self):
        kwargs = dict(
            num_workers=capped_workers(2),
            num_peers=6,
            num_segments=4,
            params=CodingParams(8, 64),
            seed=4,
            per_peer_round_quota=2,
        )
        a = run_cluster_workload(**kwargs)
        b = run_cluster_workload(parallel=True, **kwargs)
        assert a.byte_exact and b.byte_exact
        assert a.rounds == b.rounds
        assert a.placement_before == b.placement_before
        assert a.stats.as_dict() == b.stats.as_dict()


class TestControlDataSplit:
    def test_no_payload_bytes_cross_the_command_pipe(self):
        profile = MediaProfile(params=CodingParams(16, 1024))
        num_workers = capped_workers(2)
        with ServingCluster(
            GTX280, profile, num_workers=num_workers, seed=3, parallel=True
        ) as cluster:
            for i in range(2):
                cluster.publish(make_segment(i, seed=50 + i, profile=profile))
            for peer in range(4):
                cluster.connect(peer)
            replies = []
            for wid in cluster.live_workers:
                cluster.worker(wid).tap_replies(replies.append)
            before = self._control_bytes(cluster)
            for peer in range(4):
                for segment in range(2):
                    cluster.request_blocks(peer, segment, 8)
            frames = cluster.serve_round(format="frames", version=VERSION2)
            payload_bytes = sum(len(f) for f in frames.values())
            control_bytes = self._control_bytes(cluster) - before
            # The whole point of the shared-memory data plane: control
            # traffic is a sliver of the payload traffic it steers.
            assert payload_bytes > 60_000
            assert control_bytes < payload_bytes / 10
            # And no reply smuggles a payload-sized buffer either.
            for raw in replies:
                for buffer in _buffers_in(pickle.loads(raw)):
                    assert len(buffer) < profile.params.block_size

    @staticmethod
    def _control_bytes(cluster):
        return sum(
            cluster.worker(wid).control_bytes_sent
            + cluster.worker(wid).control_bytes_received
            for wid in cluster.live_workers
        )


def _buffers_in(obj):
    """Every bytes-like object reachable inside a decoded control reply."""
    if isinstance(obj, (bytes, bytearray, memoryview, np.ndarray)):
        yield obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _buffers_in(key)
            yield from _buffers_in(value)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from _buffers_in(item)


class TestRealProcessFailover:
    def test_kill_worker_fells_the_actual_process(self):
        if capped_workers(2) < 2:
            pytest.skip("needs two workers under the configured cap")
        with ServingCluster(
            GTX280, SMALL_PROFILE, num_workers=2, seed=5, parallel=True
        ) as cluster:
            publish_many(cluster, 4)
            cluster.connect(1)
            victim = cluster.placement()[0]
            proc = cluster.worker(victim)
            pid = proc.pid
            assert proc.is_alive
            cluster.kill_worker(victim)
            assert not proc.is_alive
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
            # the survivor took over segment 0 and still serves it
            assert cluster.request_blocks(1, 0, 2) is None
            frames = cluster.serve_round(format="frames", version=VERSION2)
            assert len(bytes(frames[1])) > 0
            # talking to the dead worker's handle fails loudly
            with pytest.raises(WorkerCrashError):
                proc.request_blocks(1, 0, 1)

    def test_seeded_kill_soak_recovers_through_the_nack_path(self):
        num_workers = capped_workers(4)
        if num_workers < 2:
            pytest.skip("needs two workers under the configured cap")
        plan = WorkerKillPlan(
            seed=2, num_workers=num_workers, kill_at_progress=0.2
        )
        report = run_cluster_workload(
            num_workers=num_workers,
            num_peers=16,
            num_segments=8,
            params=CodingParams(16, 256),
            seed=2,
            per_peer_round_quota=2,
            kill_plan=plan,
            parallel=True,
        )
        assert report.parallel
        assert report.killed_worker == plan.victim
        assert report.kill_round is not None and report.kill_round > 0
        for segment_id in report.moved_segments:
            assert report.placement_before[segment_id] == plan.victim
        assert report.byte_exact
        assert not report.undecoded_peers
        assert report.stats.workers_killed == 1


class TestResourceHygiene:
    def test_close_releases_every_ring(self):
        cluster = ServingCluster(
            GTX280,
            SMALL_PROFILE,
            num_workers=capped_workers(2),
            seed=1,
            parallel=True,
        )
        names = [
            cluster.worker(wid).ring.name for wid in cluster.live_workers
        ]
        cluster.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                BlockRing.attach(name, capacity=1)
        cluster.close()  # idempotent

    def test_ring_grows_to_fit_large_rounds(self):
        profile = MediaProfile(params=CodingParams(16, 2048))
        with ServingCluster(
            GTX280, profile, num_workers=1, seed=0, parallel=True
        ) as cluster:
            cluster.publish(make_segment(0, seed=9, profile=profile))
            proc = cluster.worker(0)
            initial = proc.ring.capacity
            for peer in range(24):
                cluster.connect(peer)
                cluster.request_blocks(peer, 0, 16)
            frames = cluster.serve_round(format="frames", version=VERSION2)
            assert len(frames) == 24
            assert proc.ring.capacity > initial
            del frames

    def test_session_mirrors_match_worker_truth(self):
        with ServingCluster(
            GTX280,
            SMALL_PROFILE,
            num_workers=capped_workers(2),
            seed=6,
            parallel=True,
        ) as cluster:
            publish_many(cluster, 4)
            view = cluster.connect(1)
            for segment in range(4):
                cluster.request_blocks(1, segment, 2)
            assert view.blocks_pending == 8
            cluster.serve_round(format="frames", version=VERSION2)
            assert view.blocks_pending == 0
            assert view.blocks_received == 8
            for wid in cluster.live_workers:
                proc = cluster.worker(wid)
                snap = proc.stats_snapshot()
                assert (
                    snap["gauges"]["server_queue_blocks"]
                    == proc.pending_blocks
                )


class TestEndpointContractInParallel:
    def test_retry_later_crosses_the_process_boundary(self):
        with ServingCluster(
            GTX280,
            SMALL_PROFILE,
            num_workers=1,
            seed=0,
            parallel=True,
            max_pending_blocks=4,
        ) as cluster:
            publish_many(cluster, 1)
            cluster.connect(1)
            cluster.connect(2)
            assert cluster.request_blocks(1, 0, 4) is None
            response = cluster.request_blocks(2, 0, 4)
            assert isinstance(response, RetryLater)
            assert response.retry_after_rounds >= 1

    def test_errors_cross_the_process_boundary(self):
        with ServingCluster(
            GTX280, SMALL_PROFILE, num_workers=1, seed=0, parallel=True
        ) as cluster:
            publish_many(cluster, 1)
            with pytest.raises(ConfigurationError):
                cluster.request_blocks(42, 0, 2)
            cluster.connect(1)
            cluster.disconnect(1)
            with pytest.raises(CapacityError):
                cluster.request_blocks(1, 0, 2)

    def test_worker_eviction_withdraws_placement(self):
        with ServingCluster(
            GTX280,
            SMALL_PROFILE,
            num_workers=capped_workers(2),
            seed=7,
            parallel=True,
        ) as cluster:
            publish_many(cluster, 4)
            cluster.connect(1)
            owner = cluster.placement()[3]
            cluster.worker(owner).evict_segment(3)
            assert 3 not in cluster.placement()
            with pytest.raises(CapacityError):
                cluster.request_blocks(1, 3, 1)

    def test_snapshot_rolls_up_worker_processes(self):
        with ServingCluster(
            GTX280,
            SMALL_PROFILE,
            num_workers=capped_workers(2),
            seed=8,
            parallel=True,
        ) as cluster:
            publish_many(cluster, 4)
            cluster.connect(1)
            for segment in range(4):
                cluster.request_blocks(1, segment, 2)
            cluster.serve_round(format="frames", version=VERSION2)
            snap = cluster.stats_snapshot()
            assert snap["gauges"]["cluster_parallel"] == 1.0
            assert snap["counters"]["cluster_control_bytes_sent"] > 0
            served = sum(
                snap["counters"][f'server_blocks_served{{worker="{w}"}}']
                for w in cluster.live_workers
            )
            assert served == snap["counters"]["cluster_blocks_served"] == 8.0
