"""The round packer: one ``pack_blocks`` call per granted segment.

``EagerRounds._pack_round`` packs each granted segment's emission with
one call, writing the rows straight into their peers' places in the
peer-major round.  Before, it packed one call per (peer, granted batch).
That loop is pinned below, and the packer must match it byte for byte,
span for span and ``tx_sequence`` for ``tx_sequence`` over random
fanouts: peers granted on two segments in one round, both frame
versions, checksums on and off, a worker stamp, sequences wrapping past
2^32, and a caller's buffer at a non-zero offset (the cluster's
shared-memory path).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import GTX280
from repro.rlnc import CodingParams, Segment
from repro.rlnc.wire import VERSION, VERSION2, pack_blocks, stream_size
from repro.streaming import MediaProfile, StreamingServer
from repro.streaming import server as server_module

PROFILE = MediaProfile(params=CodingParams(6, 40))
SEGMENTS = 3
PEERS = 5
#: Where the caller's allocation starts inside its buffer.
OFFSET = 37


def reference_pack_round(endpoint, emissions, alloc, *, checksum, version):
    """The per-peer packer before one pack per granted segment.

    Views each grant as a row slice of its segment's emission, groups
    them per peer in grant order, and packs one ``pack_blocks`` call per
    (peer, batch) back to back, consuming each session's
    ``tx_sequence``.
    """
    fanout = {}
    for emission, grants in emissions:
        row = 0
        for peer_id, count in grants:
            fanout.setdefault(peer_id, []).append(
                emission.slice_rows(slice(row, row + count))
            )
            row += count
    if not fanout:
        return {}
    total = sum(
        stream_size(
            len(batch),
            batch.num_blocks,
            batch.block_size,
            checksum=checksum,
            version=version,
        )
        for batches in fanout.values()
        for batch in batches
    )
    buffer, offset = alloc(total)
    view = memoryview(buffer)
    spans = {}
    sequenced = version == VERSION2
    stamp = endpoint.worker_id if sequenced else None
    for peer_id, batches in fanout.items():
        session = endpoint._sessions[peer_id]
        peer_spans = spans.setdefault(peer_id, [])
        for batch in batches:
            packed = pack_blocks(
                batch,
                checksum=checksum,
                out=view,
                offset=offset,
                version=version,
                first_sequence=session.tx_sequence,
                worker_id=stamp,
            )
            if sequenced:
                session.tx_sequence += len(batch)
            peer_spans.append((offset, len(packed)))
            offset += len(packed)
    return spans


def make_pair(worker_id, quota):
    """Two identically seeded servers holding the same segments."""
    servers = []
    for _ in range(2):
        server = StreamingServer(
            GTX280,
            PROFILE,
            rng=np.random.default_rng(11),
            per_peer_round_quota=quota,
            worker_id=worker_id,
        )
        for segment_id in range(SEGMENTS):
            server.publish(
                Segment.random(
                    PROFILE.params,
                    np.random.default_rng(segment_id),
                    segment_id=segment_id,
                )
            )
        servers.append(server)
    return servers


class Allocator:
    """A caller's buffer handed out at ``OFFSET``, fenced by junk bytes."""

    def __init__(self):
        self.buffer = None

    def __call__(self, total):
        self.buffer = bytearray(b"\xa5" * (OFFSET + total + 23))
        return self.buffer, OFFSET


requests = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, PEERS - 1),
            st.integers(0, SEGMENTS - 1),
            st.integers(1, 9),
        ),
        max_size=8,
    ),
    min_size=1,
    max_size=4,
)


def run_rounds(rounds, *, version, checksum, worker_id, quota, wrap):
    new, old = make_pair(worker_id, quota)
    for server in (new, old):
        for peer in range(PEERS):
            session = server.connect(peer)
            if wrap:
                session.tx_sequence = 2**32 - 3 - peer
    for asks in [*rounds, []]:
        for server in (new, old):
            for peer, segment_id, count in asks:
                server.request_blocks(peer, segment_id, count)
        mine, theirs = Allocator(), Allocator()
        spans = new.serve_round_into(mine, checksum=checksum, version=version)
        expected = reference_pack_round(
            old, old._round_emissions(), theirs, checksum=checksum, version=version
        )
        assert spans == expected
        assert mine.buffer == theirs.buffer
        assert {p: s.tx_sequence for p, s in new._sessions.items()} == {
            p: s.tx_sequence for p, s in old._sessions.items()
        }
    assert new.stats == old.stats
    assert new.session_counters() == old.session_counters()


class TestAgainstThePerPeerPacker:
    @pytest.mark.parametrize("version", [VERSION, VERSION2])
    @pytest.mark.parametrize("checksum", [True, False])
    @settings(max_examples=25, deadline=None)
    @given(
        requests,
        st.sampled_from([None, 0, 9]),
        st.sampled_from([None, 4]),
        st.booleans(),
    )
    def test_random_fanouts_are_byte_identical(
        self, version, checksum, rounds, worker_id, quota, wrap
    ):
        if version == VERSION:
            worker_id = None  # the stamp is a version-2 field
        run_rounds(
            rounds,
            version=version,
            checksum=checksum,
            worker_id=worker_id,
            quota=quota,
            wrap=wrap,
        )

    @pytest.mark.parametrize("version", [VERSION, VERSION2])
    def test_peer_granted_on_two_segments(self, version):
        # Peer 1 is granted on segments 0 and 2 in one round, between
        # peers placed before and after it, across the 2^32 wrap.
        rounds = [[(0, 0, 2), (1, 0, 3), (2, 2, 1), (1, 2, 4), (3, 0, 1)]]
        run_rounds(
            rounds,
            version=version,
            checksum=True,
            worker_id=5 if version == VERSION2 else None,
            quota=None,
            wrap=True,
        )


def test_one_pack_call_per_granted_segment(monkeypatch):
    server, _ = make_pair(None, None)
    for peer in range(PEERS):
        server.connect(peer)
        server.request_blocks(peer, peer % 2, 3)
    server.request_blocks(0, 2, 1)
    calls = []

    def counting(batch, **kwargs):
        calls.append(batch.segment_id)
        return pack_blocks(batch, **kwargs)

    monkeypatch.setattr(server_module, "pack_blocks", counting)
    frames = server.serve_round(version=VERSION2)
    assert sorted(calls) == [0, 1, 2]
    assert sorted(frames) == list(range(PEERS))
