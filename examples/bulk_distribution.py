"""Avalanche-style bulk content distribution with offline GPU decoding.

Sec. 5.2 motivates multi-segment decoding with exactly this workload:
"Avalanche, which uses network coding in bulk content distribution,
gathers a large number of coded blocks over a period of time and
performs decoding offline."  This example serves a multi-segment file
from a *sharded origin cluster* through the unified ``repro.serving``
facade: segments are consistent-hash placed across 4 workers, peers
enqueue asks and collect the coalesced round deliveries without
decoding anything online (bulk mode), and at the end each peer
batch-decodes its hoard with the two-stage multi-segment GPU decoder,
reporting the modelled decode time on a GTX 280.

Run:
    python examples/bulk_distribution.py
"""

import numpy as np

from repro.gpu import GTX280
from repro.kernels import GpuMultiSegmentDecoder
from repro.rlnc import CodingParams, Segment, decode_stream
from repro.serving import ServingCluster
from repro.streaming import MediaProfile

MB = 1e6


def main() -> None:
    params = CodingParams(num_blocks=12, block_size=256)
    num_segments = 5
    peers = list(range(8))
    extra = 2  # coded blocks hoarded beyond rank, like a real bulk peer

    print(f"distributing {num_segments} segments "
          f"({num_segments * params.segment_bytes} bytes) to "
          f"{len(peers)} peers from a 4-worker origin cluster\n")

    cluster = ServingCluster(
        GTX280, MediaProfile(params=params), num_workers=4, seed=17
    )
    segments = []
    for segment_id in range(num_segments):
        segment = Segment.random(
            params, np.random.default_rng(200 + segment_id),
            segment_id=segment_id,
        )
        segments.append(segment)
        cluster.publish(segment)
    by_worker: dict[int, int] = {}
    for owner in cluster.placement().values():
        by_worker[owner] = by_worker.get(owner, 0) + 1
    print("placement: " + ", ".join(
        f"worker {worker} holds {count}"
        for worker, count in sorted(by_worker.items())))

    # Bulk mode: every peer asks every segment's owner for rank + extra
    # blocks, then just hoards the deliveries — no online decoding.
    collected = {peer: {s: [] for s in range(num_segments)} for peer in peers}
    for peer in peers:
        cluster.connect(peer)
        for segment_id in range(num_segments):
            cluster.request_blocks(
                peer, segment_id, params.num_blocks + extra
            )
    rounds = 0
    while cluster.pending_blocks:
        for peer, frames in cluster.serve_round().items():
            for block in decode_stream(frames):
                collected[peer][block.segment_id].append(block)
        rounds += 1
    total = sum(
        len(blocks)
        for hoard in collected.values()
        for blocks in hoard.values()
    )
    print(f"served {total} coded blocks in {rounds} coalesced round(s), "
          f"modelled cluster speedup {cluster.stats.model_speedup:.2f}x")

    # Offline batch decode on the GPU, one peer shown.
    decoder = GpuMultiSegmentDecoder(GTX280)
    decoded = decoder.decode(params, collected[0])
    print(f"\npeer 0 batch-decoded {len(decoded.segments)} segments "
          f"({decoded.decoded_bytes} bytes) in modelled "
          f"{decoded.time_seconds * 1e3:.2f} ms "
          f"({decoded.bandwidth / MB:.0f} MB/s, stage-1 share "
          f"{decoded.first_stage_share:.0%})")
    for original, recovered in zip(segments, decoded.segments):
        assert np.array_equal(original.blocks, recovered.blocks)
    print("all segments byte-exact after offline decode")


if __name__ == "__main__":
    main()
