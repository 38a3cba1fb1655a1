"""Sharded serving cluster: consistent-hash placement over N workers.

The repo's horizontal-scaling primitive.  Segments shard across
:class:`~repro.streaming.server.StreamingServer` workers via a seeded
consistent-hash ring with virtual nodes; a router sends every block
request to the segment's owner and rebalances deterministically when a
worker dies.  The cluster speaks the same
:class:`~repro.serving.ServingEndpoint` surface as a single server.

Two execution substrates sit behind that surface, on one round path:
the default in-process cluster holds each worker's
:class:`~repro.cluster.worker.LocalWorker` directly, and
``parallel=True`` hosts each in its own OS process with
:class:`~repro.cluster.shm.BlockRing` shared-memory block buffers —
byte-identical output, real-core wall speedup.

Parallel clusters can additionally self-heal: construct with
``supervision=SupervisorConfig(...)`` and a
:class:`~repro.cluster.supervisor.WorkerSupervisor` detects crashed,
hung and pathologically slow workers (deadlines, heartbeats, slow-round
strikes) and restarts them under an exponential-backoff budget, with a
circuit breaker evicting repeat offenders — see
:mod:`repro.cluster.supervisor`.
"""

from repro.cluster.cluster import ClusterPeerView, ClusterStats, ServingCluster
from repro.cluster.harness import (
    ClusterWorkloadReport,
    make_workload_segments,
    run_cluster_workload,
)
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.router import ClusterRouter
from repro.cluster.shm import RING_NAME_PREFIX, BlockRing
from repro.cluster.supervisor import (
    SupervisorConfig,
    SupervisorStats,
    WorkerSupervisor,
)
from repro.cluster.worker import (
    LocalWorker,
    WorkerBootstrap,
    WorkerLifecycleStats,
    WorkerProcess,
)

__all__ = [
    "BlockRing",
    "ClusterPeerView",
    "ClusterRouter",
    "ClusterStats",
    "ClusterWorkloadReport",
    "DEFAULT_VNODES",
    "HashRing",
    "LocalWorker",
    "RING_NAME_PREFIX",
    "ServingCluster",
    "SupervisorConfig",
    "SupervisorStats",
    "WorkerBootstrap",
    "WorkerLifecycleStats",
    "WorkerProcess",
    "WorkerSupervisor",
    "make_workload_segments",
    "run_cluster_workload",
]
