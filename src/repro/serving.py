"""The unified serving facade: one protocol, one node or a cluster.

Early PRs grew several serving entry points (``serve``, ``serve_round``,
``request_blocks``, ``drive_sessions``); this module is the coherent
surface that replaces them.  Everything a consumer needs routes through
:class:`ServingEndpoint` — implemented by both the single-node
:class:`~repro.streaming.server.StreamingServer` and the sharded
:class:`~repro.cluster.cluster.ServingCluster` (in-process or
multiprocess alike) — so examples, tests and benchmarks drive either
interchangeably::

    from repro.serving import ServingCluster, ClientSession, drive_sessions

    endpoint = ServingCluster(GTX280, profile, num_workers=4, seed=7)
    endpoint.publish(segment)
    session = ClientSession(endpoint, peer_id=1)
    data = session.fetch_segment(segment.segment_id)
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.cluster.cluster import ClusterStats, ServingCluster
from repro.errors import RetryLater
from repro.multicast.relay import RelayNode
from repro.rlnc.block import Segment
from repro.rlnc.wire import VERSION
from repro.streaming.client import ClientSession, SessionStats, drive_sessions
from repro.streaming.server import ServerStats, StreamingServer
from repro.streaming.session import MediaProfile
from repro.workloads.autoscaler import Autoscaler, AutoscalerConfig
from repro.workloads.harness import LoadTestReport, run_loadtest


@runtime_checkable
class ServingEndpoint(Protocol):
    """What it means to serve network-coded segments.

    The structural contract shared by :class:`StreamingServer` (one
    simulated GPU), :class:`ServingCluster` (N of them behind a
    consistent-hash ring) and the recoding
    :class:`~repro.multicast.relay.RelayNode` (an interior node of a
    multicast tree).  :class:`ClientSession` and
    :func:`drive_sessions` are written against this protocol only, so
    transports and tests never care which side of the scale-out line —
    or which level of a distribution tree — they run on.

    Beyond the methods below, an endpoint's ``connect`` must return an
    object exposing ``blocks_pending`` (the client's NACK accounting
    reads it between rounds), and ``profile`` must carry the media and
    coding geometry.
    """

    profile: MediaProfile

    def publish(self, segment: Segment) -> None:
        """Make a segment servable (upload + any placement)."""
        ...

    def connect(self, peer_id: int):
        """Register a peer; returns its session/pending view."""
        ...

    def request_blocks(
        self, peer_id: int, segment_id: int, num_blocks: int
    ) -> RetryLater | None:
        """Enqueue an ask; ``RetryLater`` when shed at admission."""
        ...

    def serve_round(
        self,
        *,
        format: str = "frames",
        checksum: bool = True,
        version: int = VERSION,
    ) -> dict:
        """Drain one coalesced scheduling round; ``peer_id -> frames``.

        ``format`` accepts only ``"frames"``; any other value raises
        :class:`~repro.errors.ConfigurationError`.
        """
        ...

    def begin_round(
        self,
        *,
        format: str = "frames",
        checksum: bool = True,
        version: int = VERSION,
    ) -> object:
        """Start a round pipelined; returns a ticket for collect_round.

        A server, a relay and an in-process cluster serve the round
        inside this call; the multiprocess cluster's workers overlap
        it with the caller's work.  Either way ``collect_round(ticket)``
        yields frames byte-identical to a plain ``serve_round``.
        """
        ...

    def collect_round(self, ticket: object) -> dict:
        """Barrier on a ``begin_round`` ticket; ``peer_id -> frames``."""
        ...

    def stats_snapshot(self) -> dict:
        """A counters/gauges/histograms snapshot."""
        ...


__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ClientSession",
    "ClusterStats",
    "LoadTestReport",
    "RelayNode",
    "ServerStats",
    "ServingCluster",
    "ServingEndpoint",
    "SessionStats",
    "StreamingServer",
    "drive_sessions",
    "run_loadtest",
]
