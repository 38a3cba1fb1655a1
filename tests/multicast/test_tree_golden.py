"""Golden streams of a seeded lossy 2 x 8 multicast tree.

The tree is the shape and fault mix of perfbench's ``relay_lossy``
workload, scaled to four segments: n=32, k=256, 10% drop and 1%
corruption on every hop, each hop's fault plan seeded as the
workload's first tree seeds it.  Every served round (root and relays)
is hashed in order, so any change to a frame byte, to which rows a
round carries, or to how many rounds a segment takes changes a digest.
The constants below were recorded before the wire codec was folded
into one writer and one verifier; they must not move.
"""

import hashlib

import numpy as np

from repro.faults import FaultPlan
from repro.gpu import GTX280
from repro.multicast import MulticastTree
from repro.rlnc import CodingParams, Segment
from repro.streaming import MediaProfile
from repro.streaming.server import StreamingServer

PARAMS = CodingParams(num_blocks=32, block_size=256)
PROFILE = MediaProfile(params=PARAMS)
RELAYS = 2
LEAVES = 8
SEGMENTS = 4

#: Per segment, in distribution order: the sha256 over every round the
#: root and the relays served (peer id, then frame bytes, per peer).
GOLDEN_ROUND_DIGESTS = [
    "7ae4ad85357c154b88096237586448d9182f17e81d0c6d8da5ad63b85f723a9a",
    "6adbd66ba723311cf521a0fd8eb48453e61635a9203c6207ffc210ab57e559e3",
    "7f3d2cff2b3876c09cb64045a0007af812ff6c054328f45d9176dca58d0cc675",
    "032707273242999c71e2b2c30fa44f53948108d202319c9202bdcc387a707a7b",
]
#: Wire bytes the root served its relays, and the relays their leaves.
GOLDEN_HOP_BYTES_ROOT = 91902
GOLDEN_HOP_BYTES_RELAY = 759384
GOLDEN_LEAF_NACKS = 114
GOLDEN_TREE_ROUNDS = [3, 13, 5, 3]


def build_tree():
    rng = np.random.default_rng([0, 1])
    segments = [
        Segment.from_bytes(
            rng.integers(0, 256, PARAMS.segment_bytes, dtype=np.uint8).tobytes(),
            PARAMS,
            segment_id,
        )
        for segment_id in range(SEGMENTS)
    ]
    root = StreamingServer(GTX280, PROFILE, rng=np.random.default_rng(0))
    for segment in segments:
        root.publish(segment)

    def plan(offset):
        return FaultPlan(seed=offset, drop_rate=0.10, corrupt_rate=0.01)

    tree = MulticastTree(
        root,
        PROFILE,
        relays=RELAYS,
        leaves_per_relay=LEAVES,
        seed=0,
        uplink_fault_plans={i: plan(i) for i in range(RELAYS)},
        leaf_fault_plans={
            (i, j): plan(100 + LEAVES * i + j)
            for i in range(RELAYS)
            for j in range(LEAVES)
        },
    )
    return root, tree, segments


def record_rounds(endpoint, log, hop):
    """Hash every round ``endpoint`` serves into ``log[-1]``."""
    serve_round = endpoint.serve_round

    def recording(**kwargs):
        served = serve_round(**kwargs)
        for peer_id in sorted(served):
            frames = served[peer_id]
            log[-1].update(peer_id.to_bytes(4, "big"))
            log[-1].update(frames)
            hop[0] += len(frames)
        return served

    endpoint.serve_round = recording


def run_tree():
    root, tree, segments = build_tree()
    digests: list = []
    root_bytes, relay_bytes = [0], [0]
    record_rounds(root, digests, root_bytes)
    for relay in tree.relays:
        record_rounds(relay, digests, relay_bytes)
    rounds = []
    for segment in segments:
        digests.append(hashlib.sha256())
        report = tree.distribute(segment)
        assert report.leaves_complete and report.payload_ok
        rounds.append(report.rounds)
    nacks = sum(session.stats.nacks for session in tree.leaf_sessions)
    return {
        "digests": [digest.hexdigest() for digest in digests],
        "root_bytes": root_bytes[0],
        "relay_bytes": relay_bytes[0],
        "nacks": nacks,
        "rounds": rounds,
    }


def test_lossy_tree_streams_are_golden():
    result = run_tree()
    assert result["digests"] == GOLDEN_ROUND_DIGESTS
    assert result["root_bytes"] == GOLDEN_HOP_BYTES_ROOT
    assert result["relay_bytes"] == GOLDEN_HOP_BYTES_RELAY
    assert result["nacks"] == GOLDEN_LEAF_NACKS
    assert result["rounds"] == GOLDEN_TREE_ROUNDS
