"""repro — GPU-accelerated random linear network coding, reproduced.

A production-quality reimplementation of Shojania & Li, *"Pushing the
Envelope: Extreme Network Coding on the GPU"* (ICDCS 2009), on a
simulated CUDA substrate.  The package layers:

* :mod:`repro.gf256` — GF(2^8) arithmetic and matrix algebra;
* :mod:`repro.rlnc` — the random linear network codec (encode, progressive
  and two-stage decode, recode, generations);
* :mod:`repro.gpu` — the simulated CUDA device: SIMT interpreter, memory
  models, occupancy, cycle accounting;
* :mod:`repro.kernels` — the paper's GPU kernels (loop-based and
  table-based 0-5 encoding, single- and multi-segment decoding) with
  calibrated cost models;
* :mod:`repro.cpu` — the multicore SIMD CPU baseline;
* :mod:`repro.streaming` — the network-coded streaming server scenario;
* :mod:`repro.cluster` — scale-out: consistent-hash segment sharding
  across N streaming workers with deterministic failover;
* :mod:`repro.serving` — the unified serving facade (one protocol over
  a single server, a cluster, or a recoding relay);
* :mod:`repro.multicast` — pipelined multicast distribution trees:
  double-buffered serve rounds, recoding relays, and the cycle-level
  pipeline timeline model;
* :mod:`repro.p2p` — P2P content distribution (coding vs routing);
* :mod:`repro.baselines` — Reed-Solomon, LT fountain and chunked codes;
* :mod:`repro.bench` — regeneration of every figure in the evaluation.

Quickstart::

    import numpy as np
    from repro import CodingParams, Encoder, ProgressiveDecoder, Segment

    params = CodingParams(num_blocks=128, block_size=4096)
    data = b"..."  # up to params.segment_bytes
    segment = Segment.from_bytes(data, params)
    encoder = Encoder(segment, np.random.default_rng())
    decoder = ProgressiveDecoder(params)
    while not decoder.is_complete:
        decoder.consume(encoder.encode_block())
    recovered = decoder.recover_segment(original_length=len(data))
    assert recovered.to_bytes() == data
"""

from repro.errors import (
    CapacityError,
    ConfigurationError,
    DecodingError,
    FieldError,
    IntegrityError,
    LaunchError,
    ReproError,
    RetryExhaustedError,
    RetryLater,
    SingularMatrixError,
    WireError,
)
from repro.faults import (
    FaultCounters,
    FaultEvent,
    FaultInjectionChannel,
    FaultPlan,
    WorkerKillPlan,
)
from repro.multicast import (
    MulticastTree,
    OverlapReport,
    RelayNode,
    TimelineModel,
    compare_modes,
    run_lockstep,
    run_pipelined,
)
from repro.rlnc import (
    CodedBlock,
    CodingParams,
    Encoder,
    MultiSegmentDecoder,
    ProgressiveDecoder,
    Recoder,
    Segment,
    TwoStageDecoder,
)
from repro.serving import (
    ClientSession,
    ClusterStats,
    ServerStats,
    ServingCluster,
    ServingEndpoint,
    SessionStats,
    StreamingServer,
    drive_sessions,
)

__version__ = "1.0.0"

__all__ = [
    "CapacityError",
    "ClientSession",
    "ClusterStats",
    "CodedBlock",
    "CodingParams",
    "ConfigurationError",
    "DecodingError",
    "Encoder",
    "FaultCounters",
    "FaultEvent",
    "FaultInjectionChannel",
    "FaultPlan",
    "FieldError",
    "IntegrityError",
    "LaunchError",
    "MultiSegmentDecoder",
    "MulticastTree",
    "OverlapReport",
    "ProgressiveDecoder",
    "Recoder",
    "RelayNode",
    "ReproError",
    "RetryExhaustedError",
    "RetryLater",
    "Segment",
    "ServerStats",
    "ServingCluster",
    "ServingEndpoint",
    "SessionStats",
    "SingularMatrixError",
    "StreamingServer",
    "TimelineModel",
    "TwoStageDecoder",
    "WireError",
    "WorkerKillPlan",
    "__version__",
    "compare_modes",
    "drive_sessions",
    "run_lockstep",
    "run_pipelined",
]
