"""Recoder-equipped relay nodes behind the unified serving protocol.

The defining move of network coding inside a distribution tree: an
interior node need not finish decoding to serve — it keeps the
innovative coded blocks that reach it and emits fresh random
combinations downstream (:meth:`~repro.rlnc.recoder.Recoder.recode_matrix`,
one pair of engine matmuls per serving round).  Its rows live in the
recoder's :class:`~repro.rlnc.decoder.ProgressiveDecoder`, so a
dependent block is dropped on arrival and what the relay holds is its
rank.  "RLNC on Programmable Switches" puts this recoding in the
network fabric; here it lives behind the *same*
:class:`~repro.serving.ServingEndpoint` protocol as a
:class:`~repro.streaming.server.StreamingServer` and a
:class:`~repro.cluster.ServingCluster` — ``publish`` / ``connect`` /
``request_blocks`` / ``serve_round`` / ``stats_snapshot``, plus the
pipelined ``begin_round`` / ``collect_round`` pair — so a
:class:`~repro.streaming.client.ClientSession` (or another relay's
uplink) cannot tell a relay from an origin server, and any endpoint can
be an interior node of a multicast tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import CapacityError, ConfigurationError, RetryLater
from repro.obs.registry import get_registry
from repro.obs.stats import CumulativeStats
from repro.obs.trace import trace
from repro.rlnc.block import BlockBatch, Segment
from repro.rlnc.recoder import Recoder
from repro.rlnc.wire import VERSION
# perfbench's traced run patches this name: its "rlnc.wire.pack" boundary.
from repro.rlnc.wire import pack_blocks  # noqa: F401
from repro.streaming.scheduler import BlockRequest, ServeRoundScheduler
from repro.streaming.server import EagerRounds, check_round_format
from repro.streaming.session import MediaProfile


@dataclass
class RelayStats(CumulativeStats):
    """Aggregate accounting for one relay lifetime.

    The same explicit cumulative ``snapshot()/delta()/reset()`` contract
    as :class:`~repro.streaming.server.ServerStats` — the relay only
    ever adds to these counters.
    """

    segments_published: int = 0
    blocks_ingested: int = 0
    blocks_recoded: int = 0
    recode_calls: int = 0
    blocks_served: int = 0
    bytes_served: int = 0
    rounds_served: int = 0
    sessions_evicted: int = 0


class RelayNode(EagerRounds):
    """A recoding interior node implementing the serving protocol.

    Args:
        profile: media/coding configuration (shared by the whole tree).
        rng: randomness source for recoding mix coefficients; pass a
            seeded generator (``default_rng([seed, relay_index])``) for
            deterministic trees.
        name: label used in stats and error messages.
        per_peer_round_quota: most blocks one downstream peer may be
            granted per serving round (``None`` = unbounded).
        worker_id: optional cluster-style stamp carried on version-2
            frames this relay packs.
    """

    def __init__(
        self,
        profile: MediaProfile,
        *,
        rng: np.random.Generator | None = None,
        name: str = "relay",
        per_peer_round_quota: int | None = None,
        worker_id: int | None = None,
    ) -> None:
        self.profile = profile
        self.name = name
        self.worker_id = worker_id
        self._rng = rng if rng is not None else np.random.default_rng()
        self._recoders: dict[int, Recoder] = {}
        self._round_scheduler = ServeRoundScheduler(
            per_peer_quota=per_peer_round_quota
        )
        super().__init__()
        self.stats = RelayStats()
        registry = get_registry()
        self._m_ingested = registry.counter("relay_blocks_ingested")
        self._m_recoded = registry.counter("relay_blocks_recoded")
        self._m_rounds = registry.counter("relay_rounds_served")
        self._m_bytes = registry.counter("relay_bytes_served")

    # -- upstream side ------------------------------------------------------

    def publish(self, segment: Segment) -> None:
        """Make a segment servable by seeding the recoder with originals.

        A relay holding the source data *is* a valid tree root: the n
        original blocks enter the recoder with identity coefficient
        rows, so every recoded emission is a uniformly random
        combination of the full segment — indistinguishable downstream
        from an origin server's encode.
        """
        if segment.params != self.profile.params:
            raise ConfigurationError(
                f"segment geometry {segment.params} does not match profile "
                f"{self.profile.params}"
            )
        n = self.profile.params.num_blocks
        self._keep(
            segment.segment_id,
            np.eye(n, dtype=np.uint8),
            np.ascontiguousarray(segment.blocks),
        )
        self.stats.segments_published += 1

    def ingest(self, batch: BlockBatch) -> int:
        """Keep the innovative upstream coded blocks; returns rows kept.

        The relay's receive path: whatever an uplink unpacked from its
        parent's frames goes through the segment's recoder, whose
        progressive decoder drops dependent rows (and every row once it
        holds full rank), so :meth:`held` is the rank the relay can pass
        on.
        """
        return self._keep(batch.segment_id, batch)

    def _keep(self, segment_id: int, coefficients, payloads=None) -> int:
        """Offer rows to the segment's recoder; count and return the kept."""
        kept = self._recoder_for(segment_id).add_batch(coefficients, payloads)
        self.stats.blocks_ingested += kept
        self._m_ingested.inc(kept)
        return kept

    def held(self, segment_id: int) -> int:
        """Rank held for a segment: its independent rows (0 when unknown)."""
        recoder = self._recoders.get(segment_id)
        return 0 if recoder is None else recoder.buffered

    def _recoder_for(self, segment_id: int) -> Recoder:
        recoder = self._recoders.get(segment_id)
        if recoder is None:
            recoder = Recoder(self.profile.params, segment_id)
            self._recoders[segment_id] = recoder
        return recoder

    # -- downstream (ServingEndpoint) side ----------------------------------

    def request_blocks(
        self, peer_id: int, segment_id: int, num_blocks: int
    ) -> RetryLater | None:
        """Enqueue a downstream ask for recoded blocks.

        Requests carry the same nearly-complete-first priority as the
        origin server, so NACK retransmissions outrank bulk fetches.

        Raises:
            CapacityError: the relay holds nothing for the segment yet
                (its uplink has not delivered), or the peer's session
                was evicted.
            ConfigurationError: unknown peers or non-positive counts.
        """
        self._check_request(peer_id, num_blocks)
        if self.held(segment_id) == 0:
            raise CapacityError(
                f"relay {self.name!r} holds no blocks of segment "
                f"{segment_id} yet"
            )
        priority = max(0, self.profile.params.num_blocks - num_blocks)
        self._queue.append(
            BlockRequest(peer_id, segment_id, num_blocks, priority=priority)
        )
        self._sessions[peer_id].record_request(num_blocks)
        return None

    def serve_round(
        self,
        *,
        format: str = "frames",
        checksum: bool = True,
        version: int = VERSION,
    ) -> dict[int, memoryview]:
        """Drain one scheduling round of the downstream request queue.

        All grants against the same segment coalesce into a *single*
        :meth:`~repro.rlnc.recoder.Recoder.recode_matrix` emission (one
        mix-matrix draw, one pair of engine matmuls) — the relay's
        analogue of the server's coalesced encode — packed by the same
        round packer as the server into the relay's double-buffered
        wire storage.

        Args:
            format: the round output; only ``"frames"`` is served.
            checksum: whether frames carry integrity trailers.
            version: wire version (``version=2`` stamps per-session
                sequences and the worker id).

        Returns:
            ``peer_id -> memoryview`` of the peer's frames, valid for
            two rounds (one pipelined round may be in flight while the
            next packs).

        Raises:
            ConfigurationError: on any ``format`` but ``"frames"``.
        """
        check_round_format(format)
        frames = self._slot_frames(
            self._pack_round(
                self._round_batches(),
                self._alloc_wire,
                checksum=checksum,
                version=version,
            )
        )
        served = sum(len(view) for view in frames.values())
        self.stats.bytes_served += served
        self._m_bytes.inc(served)
        return frames

    def _round_batches(self) -> dict[int, list[BlockBatch]]:
        if not self._queue:
            return {}
        with trace("relay_round", relay=self.name):
            plan = self._round_scheduler.plan_round(self._queue)
            for segment_id in plan.grants:
                if self.held(segment_id) == 0:
                    raise CapacityError(
                        f"relay {self.name!r} holds no blocks of segment "
                        f"{segment_id}"
                    )
            self._queue = deque(plan.carryover)
            fanout: dict[int, list[BlockBatch]] = {}
            for segment_id, grants in plan.grants.items():
                counts = [count for _, count in grants]
                total = sum(counts)
                batch = self._recoders[segment_id].recode_matrix(
                    total, self._rng
                )
                self.stats.recode_calls += 1
                self.stats.blocks_recoded += total
                self.stats.blocks_served += total
                self._m_recoded.inc(total)
                row = 0
                for (peer_id, count) in grants:
                    view = BlockBatch(
                        coefficients=batch.coefficients[row : row + count],
                        payloads=batch.payloads[row : row + count],
                        segment_id=segment_id,
                    )
                    row += count
                    fanout.setdefault(peer_id, []).append(view)
                    self._sessions[peer_id].record_blocks(count)
            for peer_id in fanout:
                self._sessions[peer_id].rounds_served += 1
            self.stats.rounds_served += 1
            self._m_rounds.inc()
        return fanout

    def stats_snapshot(self) -> dict:
        """A registry-shaped counters/gauges/histograms snapshot."""
        stats = self.stats
        return {
            "counters": {
                "relay_blocks_ingested": float(stats.blocks_ingested),
                "relay_blocks_recoded": float(stats.blocks_recoded),
                "relay_blocks_served": float(stats.blocks_served),
                "relay_bytes_served": float(stats.bytes_served),
                "relay_recode_calls": float(stats.recode_calls),
                "relay_rounds_served": float(stats.rounds_served),
                "relay_segments_published": float(stats.segments_published),
                "relay_sessions_evicted": float(stats.sessions_evicted),
            },
            "gauges": {
                "relay_queue_blocks": float(self.pending_blocks),
                "relay_queue_depth": float(len(self._queue)),
                "relay_segments_buffered": float(len(self._recoders)),
            },
            "histograms": {},
        }

