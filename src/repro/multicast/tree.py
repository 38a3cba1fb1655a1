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

Because relays recode — fresh random combinations of the independent
rows they hold, never store-and-forward of specific blocks — loss on any hop
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

from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.multicast.relay import RelayNode, RelayStats
from repro.obs.trace import trace
from repro.p2p.topology import distribution_tree, multicast_capacity
from repro.rlnc.block import Segment
from repro.rlnc.wire import VERSION2, WireStats, frame_size
# perfbench's traced run patches this name: its "rlnc.wire.unpack" boundary.
from repro.rlnc.wire import unpack_frame  # noqa: F401
from repro.streaming.client import ClientSession
from repro.streaming.rounds import drive, receive_round
from repro.streaming.session import MediaProfile


@functools.cache
def _min_cut_bound(relays: int, leaves_per_relay: int) -> int:
    """The source -> leaves multicast capacity of one tree shape.

    A max-flow per leaf, computed once per ``(relays,
    leaves_per_relay)``: the value depends only on the shape, and
    every tree of a shape reports it.
    """
    graph = distribution_tree(relays, leaves_per_relay)
    return multicast_capacity(
        graph,
        "source",
        [node for node, role in graph.nodes(data="role") if role == "leaf"],
    )


class RelayUplink:
    """The client half of a relay: pulls coded blocks from its parent.

    Tops the relay up to full rank: each round it asks for ``num_blocks``
    less the rank the relay holds (:meth:`RelayNode.held`) and the
    blocks still pending, so its recoded emissions come to span the
    full segment.  That re-requests (NACKs) whatever injected loss or
    corruption swallowed, and replaces a dependent row, which the
    relay's recoder drops on arrival.  Frames unpack *leniently*:
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
        self._wire_key = (params.num_blocks, params.block_size, checksum, wire_version)
        self._segment_id: int | None = None

    @property
    def complete(self) -> bool:
        """True when the relay holds the current segment at full rank."""
        return self.relay.held(self._segment_id) >= self._target

    def begin_segment(self, segment_id: int) -> None:
        """Start topping the relay up on ``segment_id``."""
        self._segment_id = segment_id

    def pre_round(self) -> None:
        """Ask the parent for the rank the relay still misses."""
        missing = self._target - self.relay.held(self._segment_id)
        if missing <= 0:
            return
        pending = self._view.blocks_pending
        if pending >= missing:
            return
        self.parent.request_blocks(self.peer_id, self._segment_id, missing - pending)

    def intake(self, wire_bytes) -> int:
        """Unpack one round's frames into the relay; returns blocks kept.

        A cohort of one of :func:`~repro.streaming.rounds.receive_round`:
        the round is verified as one frame matrix.  An intact frame of
        another segment — a stale grant from the previous segment's
        rounds — is dropped uncounted.
        """
        return receive_round([self], [wire_bytes])[0]

    # -- the receive step's hooks (see rounds.receive_round) ---------------

    @property
    def _sink(self) -> object:
        return self.relay

    def _open_round(self) -> int:
        return self._segment_id

    def _settle_may_raise(self) -> bool:
        return False

    def _take_round(self, rows: int, foreign: int, received: int):
        if not rows:
            return None
        decoder = self.relay._intake_decoder(self._segment_id, rows)
        return None if decoder is None else (decoder, None)

    def _settle_round(self, rows: int, kept: int | None) -> int:
        if kept is None:
            return 0
        self.relay._ingested(self._segment_id, kept)
        return kept


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
        uplink_wire: each relay uplink's cumulative wire damage
            (checksum failures, malformed frames), by relay name.
    """

    rounds: int
    relays: int
    leaves: int
    leaves_complete: bool
    payload_ok: bool
    min_cut_bound: int
    blocks_recoded: int
    relay_stats: dict[str, RelayStats] = field(default_factory=dict)
    uplink_wire: dict[str, WireStats] = field(default_factory=dict)


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

    @property
    def min_cut_bound(self) -> int:
        """The source -> leaves multicast capacity of :attr:`graph`."""
        return _min_cut_bound(len(self.relays), len(self.cohorts[0]))

    @property
    def leaf_sessions(self) -> list[ClientSession]:
        """Every leaf session, relay-major order."""
        return [session for cohort in self.cohorts for session in cohort]

    def distribute(
        self, segment: Segment, *, max_rounds: int = 10_000
    ) -> TreeReport:
        """Push one segment from the root to every leaf.

        Each synchronized tree round steps one
        :func:`~repro.streaming.rounds.drive` per hop in turn: the
        root's over the uplinks (one root round feeds all relays' asks
        at once — the root coalesces them like any other peers), then
        each relay's over its cohort, a recoded round.  A cohort joins
        as soon as its relay holds *anything* — recoded blocks of a
        relay below full rank still carry rank — and its leaves' NACK
        loops repair any losses hop-locally.  The tree is done when
        every cohort's driver is.

        Raises:
            RetryExhaustedError: the tree did not complete within
                ``max_rounds`` (or a leaf's retry budget ran out).
        """
        segment_id = segment.segment_id
        for receiver in (*self.uplinks, *self.leaf_sessions):
            receiver.begin_segment(segment_id)
        wire = {"checksum": self.checksum, "version": self.wire_version}
        uplink_rounds = drive(self.root, self.uplinks, max_rounds=max_rounds, **wire)
        # Each cohort's driver starts once its relay holds rank, with the
        # tree's round budget less the rounds already spent.
        leaf_rounds: list = [None] * len(self.relays)
        fetching = list(range(len(self.relays)))
        rounds = 0
        with trace("multicast_tree", relays=len(self.relays)):
            while fetching:
                stepped = next(uplink_rounds, None) is not None
                for index in list(fetching):
                    if leaf_rounds[index] is None:
                        relay = self.relays[index]
                        if relay.held(segment_id) == 0:
                            continue
                        leaf_rounds[index] = drive(
                            relay,
                            self.cohorts[index],
                            max_rounds=max_rounds - rounds,
                            **wire,
                        )
                    if next(leaf_rounds[index], None) is None:
                        fetching.remove(index)
                    else:
                        stepped = True
                if stepped:
                    rounds += 1
        expected = segment.to_bytes()
        payload_ok = all(
            session.finish_segment(segment.original_length).to_bytes()
            == expected
            for session in self.leaf_sessions
        )
        for relay in self.relays:
            relay.evict_segment(segment_id)
        return TreeReport(
            rounds=rounds,
            relays=len(self.relays),
            leaves=len(self.leaf_sessions),
            leaves_complete=True,
            payload_ok=payload_ok,
            min_cut_bound=self.min_cut_bound,
            blocks_recoded=sum(r.stats.blocks_recoded for r in self.relays),
            relay_stats={r.name: r.stats.snapshot() for r in self.relays},
            uplink_wire={u.relay.name: u.wire.snapshot() for u in self.uplinks},
        )
