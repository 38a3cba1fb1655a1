"""Multicast distribution trees: endpoints wired to endpoints.

A tree is nothing but the unified serving protocol applied recursively:
the root is any :class:`~repro.serving.ServingEndpoint` (a
:class:`~repro.streaming.server.StreamingServer`, a
:class:`~repro.cluster.ServingCluster` — or another relay), each
interior node is a :class:`~repro.multicast.relay.RelayNode` that is
simultaneously a *client* of its parent (via :class:`RelayUplink`) and
a *server* to its cohort (it implements the same endpoint protocol),
and the leaves are ordinary NACK-driven
:class:`~repro.streaming.client.ClientSession` transports that cannot
tell a relay from an origin server.

Because relays recode — fresh random combinations of whatever they
buffered, never store-and-forward of specific blocks — loss on any hop
is repaired locally by that hop's NACK loop, and rank is preserved end
to end: the classic RLNC multicast argument, here with every hop's
frames passing through the real wire format and fault injection.

Shapes come from :func:`repro.p2p.topology.distribution_tree`; the
construction is seeded (``default_rng([seed, relay_index])``) and fully
deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, RetryExhaustedError
from repro.faults import FaultPlan
from repro.multicast.relay import RelayNode, RelayStats
from repro.obs.trace import trace
from repro.p2p.topology import distribution_tree, multicast_capacity
from repro.rlnc.block import Segment
from repro.rlnc.wire import (
    VERSION2,
    WireStats,
    frame_rows,
    frame_size,
    unpack_round,
)
# perfbench's traced run patches this name: its "rlnc.wire.unpack" boundary.
from repro.rlnc.wire import unpack_frame  # noqa: F401
from repro.streaming.client import ClientSession
from repro.streaming.session import MediaProfile


class RelayUplink:
    """The client half of a relay: pulls coded blocks from its parent.

    Keeps the relay's buffer topped up to ``num_blocks`` coded blocks of
    the segment in flight — enough held randomness for its recoded
    emissions to span the full segment — re-requesting (NACK) whatever
    injected loss or corruption swallowed.  Frames unpack *leniently*:
    damaged ones are dropped and counted in :attr:`wire`, never
    ingested.

    Args:
        parent: the upstream endpoint the relay feeds from.
        relay: the relay being fed.
        peer_id: this uplink's identity on the parent.
        fault_plan: optional deterministic fault injector on this hop.
        checksum / wire_version: wire settings (must match what the
            parent's serve rounds emit).
    """

    def __init__(
        self,
        parent,
        relay: RelayNode,
        peer_id: int,
        *,
        fault_plan: FaultPlan | None = None,
        checksum: bool = True,
        wire_version: int = VERSION2,
    ) -> None:
        self.parent = parent
        self.relay = relay
        self.peer_id = peer_id
        self.fault_plan = fault_plan
        self.checksum = checksum
        self.wire_version = wire_version
        self.wire = WireStats()
        self._view = parent.connect(peer_id)
        params = relay.profile.params
        self._target = params.num_blocks
        self._frame_bytes = frame_size(
            params.num_blocks,
            params.block_size,
            checksum=checksum,
            version=wire_version,
        )

    def pre_round(self, segment_id: int) -> None:
        """Ask the parent for whatever the relay's buffer still misses."""
        missing = self._target - self.relay.held(segment_id)
        if missing <= 0:
            return
        pending = self._view.blocks_pending
        if pending >= missing:
            return
        self.parent.request_blocks(self.peer_id, segment_id, missing - pending)

    def intake(self, segment_id: int, wire_bytes) -> int:
        """Unpack one round's frames into the relay; returns blocks kept.

        The round is verified as one frame matrix by
        :func:`~repro.rlnc.wire.unpack_round`.  An intact frame of
        another segment — a stale grant from the previous segment's
        rounds — is dropped uncounted.
        """
        frames = frame_rows(wire_bytes, self._frame_bytes, self.wire)
        if self.fault_plan is not None and len(frames):
            frames = self.fault_plan.apply_frames(frames)
        params = self.relay.profile.params
        with trace("wire_unpack", peer=self.peer_id):
            batch, _ = unpack_round(
                frames,
                segment_id=segment_id,
                num_blocks=params.num_blocks,
                block_size=params.block_size,
                checksum=self.checksum,
                version=self.wire_version,
                stats=self.wire,
            )
        if not len(batch):
            return 0
        return self.relay.ingest(batch)


@dataclass(frozen=True)
class TreeReport:
    """One tree distribution run, fully accounted.

    Attributes:
        rounds: synchronized tree rounds driven.
        relays / leaves: tree shape.
        leaves_complete: every leaf reached full rank.
        payload_ok: every leaf's recovered bytes equal the source's.
        min_cut_bound: the topology's coding-achievable multicast rate.
        blocks_recoded: total fresh combinations emitted by relays.
        relay_stats: per-relay cumulative counters, by relay name.
    """

    rounds: int
    relays: int
    leaves: int
    leaves_complete: bool
    payload_ok: bool
    min_cut_bound: int
    blocks_recoded: int
    relay_stats: dict[str, RelayStats] = field(default_factory=dict)


class MulticastTree:
    """A two-level distribution tree of live endpoints.

    Args:
        root: the origin endpoint (must already hold the segments it
            will distribute — ``publish`` first).
        profile: media/coding configuration shared by the whole tree.
        relays: interior recoding nodes, each fed by its own uplink.
        leaves_per_relay: leaf clients per relay cohort.
        seed: seeds each relay's recode rng as
            ``default_rng([seed, relay_index])`` — two trees built with
            the same seed emit identical combinations.
        per_peer_round_quota: relay-side round quota for leaf grants.
        uplink_fault_plans: optional per-relay-index fault injectors on
            the source -> relay hops.
        leaf_fault_plans: optional fault injectors keyed by
            ``(relay_index, leaf_index)`` on the relay -> leaf hops.
        checksum / wire_version: wire settings for every hop.
    """

    def __init__(
        self,
        root,
        profile: MediaProfile,
        *,
        relays: int = 2,
        leaves_per_relay: int = 2,
        seed: int = 0,
        per_peer_round_quota: int | None = None,
        uplink_fault_plans: dict[int, FaultPlan] | None = None,
        leaf_fault_plans: dict[tuple[int, int], FaultPlan] | None = None,
        checksum: bool = True,
        wire_version: int = VERSION2,
    ) -> None:
        if relays < 1 or leaves_per_relay < 1:
            raise ConfigurationError(
                "tree needs at least one relay and one leaf per relay"
            )
        self.root = root
        self.profile = profile
        self.seed = seed
        self.checksum = checksum
        self.wire_version = wire_version
        self.graph = distribution_tree(relays, leaves_per_relay)
        uplink_fault_plans = uplink_fault_plans or {}
        leaf_fault_plans = leaf_fault_plans or {}
        self.relays: list[RelayNode] = []
        self.uplinks: list[RelayUplink] = []
        self.cohorts: list[list[ClientSession]] = []
        for i in range(relays):
            relay = RelayNode(
                profile,
                rng=np.random.default_rng([seed, i]),
                name=f"relay{i}",
                per_peer_round_quota=per_peer_round_quota,
                worker_id=i,
            )
            self.relays.append(relay)
            self.uplinks.append(
                RelayUplink(
                    root,
                    relay,
                    i,
                    fault_plan=uplink_fault_plans.get(i),
                    checksum=checksum,
                    wire_version=wire_version,
                )
            )
            self.cohorts.append(
                [
                    ClientSession(
                        relay,
                        j,
                        fault_plan=leaf_fault_plans.get((i, j)),
                        wire_version=wire_version,
                        checksum=checksum,
                    )
                    for j in range(leaves_per_relay)
                ]
            )

    @functools.cached_property
    def min_cut_bound(self) -> int:
        """The source -> leaves multicast capacity of :attr:`graph`.

        A max-flow per leaf; computed on first use and kept, because
        the topology never changes after construction.
        """
        return multicast_capacity(
            self.graph,
            "source",
            [node for node, role in self.graph.nodes(data="role") if role == "leaf"],
        )

    @property
    def leaf_sessions(self) -> list[ClientSession]:
        """Every leaf session, relay-major order."""
        return [session for cohort in self.cohorts for session in cohort]

    def distribute(
        self, segment: Segment, *, max_rounds: int = 10_000
    ) -> TreeReport:
        """Push one segment from the root to every leaf.

        Each synchronized tree round: uplinks top up their relays from
        the root (one root serve round feeds all relays' asks at once —
        the root coalesces them like any other peers), then each relay
        serves its cohort a recoded round.  Leaves join as soon as
        their relay holds *anything* — recoded blocks of a partial
        buffer still carry rank — and their NACK loops repair any
        losses hop-locally.

        Raises:
            RetryExhaustedError: the tree did not complete within
                ``max_rounds`` (or a leaf's retry budget ran out).
        """
        segment_id = segment.segment_id
        for session in self.leaf_sessions:
            session.begin_segment(segment_id)
        rounds = 0
        with trace("multicast_tree", relays=len(self.relays)):
            while any(not s.complete for s in self.leaf_sessions):
                if rounds >= max_rounds:
                    raise RetryExhaustedError(
                        f"tree distribution incomplete after {max_rounds} rounds"
                    )
                for uplink in self.uplinks:
                    uplink.pre_round(segment_id)
                if self.root.pending_blocks > 0:
                    frames = self.root.serve_round(
                        format="frames",
                        checksum=self.checksum,
                        version=self.wire_version,
                    )
                    for uplink in self.uplinks:
                        uplink.intake(segment_id, frames.get(uplink.peer_id))
                for relay, cohort in zip(self.relays, self.cohorts):
                    if relay.held(segment_id) == 0:
                        continue
                    active = [s for s in cohort if not s.complete]
                    for session in active:
                        session.pre_round()
                    served = (
                        relay.serve_round(
                            format="frames",
                            checksum=self.checksum,
                            version=self.wire_version,
                        )
                        if relay.pending_requests
                        else {}
                    )
                    for session in active:
                        session.intake(served.get(session.peer_id))
                rounds += 1
        expected = segment.to_bytes()
        payload_ok = all(
            session.finish_segment(segment.original_length).to_bytes()
            == expected
            for session in self.leaf_sessions
        )
        return TreeReport(
            rounds=rounds,
            relays=len(self.relays),
            leaves=len(self.leaf_sessions),
            leaves_complete=True,
            payload_ok=payload_ok,
            min_cut_bound=self.min_cut_bound,
            blocks_recoded=sum(r.stats.blocks_recoded for r in self.relays),
            relay_stats={r.name: r.stats.snapshot() for r in self.relays},
        )
