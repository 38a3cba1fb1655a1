"""Network-coded streaming server (the Sec. 5.1.2 deployment scenario).

NIC models, media profiles and peer sessions, capacity planning, and a
functional GPU-backed streaming server.
"""

from repro.streaming.capacity import (
    DEVICE_MEMORY_RESERVE_BYTES,
    CapacityPlan,
    live_blocks_per_segment,
    peers_supported_by_coding,
    peers_supported_by_nic,
    plan_capacity,
    segments_in_device_memory,
)
from repro.streaming.live import LiveJoinPoint, LiveWindow
from repro.streaming.nic import DUAL_GIGABIT_ETHERNET, GIGABIT_ETHERNET, NicModel
from repro.streaming.scheduler import (
    BlockRequest,
    RoundPlan,
    ScheduledRequest,
    SegmentScheduler,
    ServeRoundScheduler,
)
from repro.streaming.client import (
    ClientSession,
    PlaybackReport,
    SessionStats,
    StreamingClient,
    drive_sessions,
)
from repro.streaming.server import ServerStats, StreamingServer
from repro.streaming.session import REFERENCE_PROFILE, MediaProfile, PeerSession
from repro.streaming.workload import (
    SessionArrival,
    VodWorkloadSimulator,
    WorkloadReport,
    generate_poisson_trace,
)

__all__ = [
    "BlockRequest",
    "CapacityPlan",
    "ClientSession",
    "DEVICE_MEMORY_RESERVE_BYTES",
    "DUAL_GIGABIT_ETHERNET",
    "GIGABIT_ETHERNET",
    "LiveJoinPoint",
    "LiveWindow",
    "MediaProfile",
    "NicModel",
    "PeerSession",
    "PlaybackReport",
    "REFERENCE_PROFILE",
    "RoundPlan",
    "ScheduledRequest",
    "SegmentScheduler",
    "ServeRoundScheduler",
    "ServerStats",
    "SessionArrival",
    "SessionStats",
    "StreamingClient",
    "StreamingServer",
    "VodWorkloadSimulator",
    "WorkloadReport",
    "drive_sessions",
    "generate_poisson_trace",
    "live_blocks_per_segment",
    "peers_supported_by_coding",
    "peers_supported_by_nic",
    "plan_capacity",
    "segments_in_device_memory",
]
