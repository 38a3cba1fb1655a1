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

from dataclasses import dataclass

import numpy as np

from repro.errors import CapacityError, RetryLater
from repro.obs.stats import CumulativeStats
from repro.rlnc.block import BlockBatch, Segment
from repro.rlnc.recoder import Recoder
from repro.rlnc.wire import VERSION
# perfbench's traced run patches this name: its "rlnc.wire.pack" boundary.
from repro.rlnc.wire import pack_blocks  # noqa: F401
from repro.streaming.server import EagerRounds
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

    An :class:`~repro.streaming.server.EagerRounds` endpoint whose rows
    are fresh recodes of what it holds: one
    :class:`~repro.rlnc.recoder.Recoder` per segment, fed by
    :meth:`publish` (the source blocks) or :meth:`ingest` (an uplink's
    coded blocks).  Admission, the round body, the packer and
    :meth:`evict_segment` are the server's; a relay only says whether
    it holds a segment, recodes it, and drops its recoder on eviction.
    :class:`~repro.multicast.tree.MulticastTree` evicts a segment from
    every relay once every leaf has finished it, so a relay holds rows
    only for segments still in flight.

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
        super().__init__(per_peer_round_quota=per_peer_round_quota)
        self.profile = profile
        self.name = name
        self.worker_id = worker_id
        self._rng = rng if rng is not None else np.random.default_rng()
        self._recoders: dict[int, Recoder] = {}
        self.stats = RelayStats()

    # -- upstream side ------------------------------------------------------

    def publish(self, segment: Segment) -> None:
        """Make a segment servable by seeding the recoder with originals.

        A relay holding the source data *is* a valid tree root: the n
        original blocks enter the recoder with identity coefficient
        rows, so every recoded emission is a uniformly random
        combination of the full segment — indistinguishable downstream
        from an origin server's encode.
        """
        self._check_geometry(segment)
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
        kept = self._recoder(segment_id).add_batch(coefficients, payloads)
        self.stats.blocks_ingested += kept
        return kept

    def _recoder(self, segment_id: int) -> Recoder:
        recoder = self._recoders.get(segment_id)
        if recoder is None:
            recoder = self._recoders[segment_id] = Recoder(
                self.profile.params, segment_id
            )
        return recoder

    def _intake_decoder(self, segment_id: int, rows: int):
        """:meth:`ingest` split for a receiving cohort: the decoder that
        takes ``rows`` offered rows of the segment (``None`` at full
        rank, the rows counted as discarded); the cohort absorbs into
        it and reports the kept count to :meth:`_ingested`."""
        return self._recoder(segment_id)._offer(rows)

    def _ingested(self, segment_id: int, kept: int) -> None:
        self.stats.blocks_ingested += kept

    def held(self, segment_id: int) -> int:
        """Rank held for a segment: its independent rows (0 when unknown)."""
        recoder = self._recoders.get(segment_id)
        return 0 if recoder is None else recoder.buffered

    # -- the three EagerRounds hooks ----------------------------------------

    def _require_servable(self, segment_id: int) -> None:
        """CapacityError unless the relay holds rows of the segment."""
        if self.held(segment_id) == 0:
            raise CapacityError(
                f"relay {self.name!r} holds no blocks of segment "
                f"{segment_id} yet"
            )

    def _emit(self, segment_id: int, total: int) -> BlockBatch:
        """``total`` recodes of the held rows: one mix-matrix draw, one
        pair of engine matmuls."""
        batch = self._recoders[segment_id].recode_matrix(total, self._rng)
        self.stats.recode_calls += 1
        self.stats.blocks_recoded += total
        self.stats.blocks_served += total
        return batch

    def _forget(self, segment_id: int) -> None:
        """Drop the segment's recoder and the rows it holds."""
        self._recoders.pop(segment_id, None)

    # -- downstream (ServingEndpoint) side ----------------------------------

    def request_blocks(
        self, peer_id: int, segment_id: int, num_blocks: int
    ) -> RetryLater | None:
        """Enqueue a downstream ask for recoded blocks.

        Admission is the server's
        (:meth:`~repro.streaming.server.EagerRounds._admit`), so NACK
        retransmissions outrank bulk fetches.  Raises
        :class:`~repro.errors.CapacityError` while the relay holds
        nothing of the segment (not yet delivered, or evicted).
        """
        return self._admit(peer_id, segment_id, num_blocks)

    def serve_round(
        self,
        *,
        format: str = "frames",
        checksum: bool = True,
        version: int = VERSION,
    ) -> dict[int, memoryview]:
        """Drain one scheduling round of the downstream request queue.

        All grants against the same segment coalesce into a *single*
        :meth:`~repro.rlnc.recoder.Recoder.recode_matrix` emission,
        through the server's round body and packer, into the relay's
        two alternating wire slots; arguments and the returned
        ``peer_id -> memoryview`` map are as in
        :meth:`~repro.streaming.server.StreamingServer.serve_round`.
        ``stats.bytes_served`` counts the round's wire bytes.
        """
        frames = self._serve_frames(format, checksum, version)
        self.stats.bytes_served += sum(len(view) for view in frames.values())
        return frames

    def stats_snapshot(self) -> dict:
        """A registry-shaped snapshot: every :class:`RelayStats` field as
        a ``relay_*`` counter, plus the queue and buffer gauges."""
        snapshot = self.stats.series("relay")
        snapshot["gauges"].update(
            relay_queue_blocks=float(self.pending_blocks),
            relay_queue_depth=float(len(self._queue)),
            relay_segments_buffered=float(len(self._recoders)),
        )
        return snapshot
