"""Stats snapshots across process boundaries: pickle, pipe, merge.

The parallel cluster ships each worker's stats snapshot over
a command pipe and folds the lot with :func:`merge_snapshots`.  These
tests pin the contract that makes that sound:

* partitioning a stream of metric operations across per-process
  shards (a stats object for the counters, a histogram and a gauge
  map beside it), shipping each shard's snapshot through a *real*
  ``multiprocessing.Pipe`` (an actual pickle round trip), and merging
  must equal applying every operation to one shard;
* a snapshot built in a genuine child process merges identically.

Gauges are last-write-wins under merge, so cross-process gauges must be
disjoint — the cluster labels them per worker; the property test models
that with a per-shard label.
"""

import multiprocessing as mp
from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, merge_snapshots
from repro.obs.stats import CumulativeStats

COUNTERS = ("blocks_served", "bytes_served", "rounds_served")
SHARDS = 4


@dataclass
class ShardStats(CumulativeStats):
    blocks_served: int = 0
    bytes_served: int = 0
    rounds_served: int = 0


@dataclass
class Shard:
    """One process's metrics: its stats ledger, a histogram and gauges."""

    stats: ShardStats = field(default_factory=ShardStats)
    batch_bytes: Histogram = field(default_factory=Histogram)
    gauges: dict = field(default_factory=dict)

    def snapshot(self):
        observed = {
            "gauges": dict(self.gauges),
            "histograms": (
                {"batch_bytes": self.batch_bytes.snapshot()}
                if self.batch_bytes.count
                else {}
            ),
        }
        return merge_snapshots(self.stats.series("shard"), observed)

operations = st.lists(
    st.tuples(
        st.integers(0, SHARDS - 1),
        st.sampled_from(["counter", "histogram", "gauge"]),
        st.integers(0, len(COUNTERS) - 1),
        st.integers(1, 10_000),
    ),
    max_size=64,
)


def pipe_round_trip(obj):
    """Send ``obj`` through a real multiprocessing pipe (pickles it)."""
    receiver, sender = mp.Pipe(duplex=False)
    try:
        sender.send(obj)
        return receiver.recv()
    finally:
        sender.close()
        receiver.close()


def apply(target, shard, kind, name_index, amount):
    if kind == "counter":
        name = COUNTERS[name_index]
        setattr(target.stats, name, getattr(target.stats, name) + amount)
    elif kind == "histogram":
        target.batch_bytes.observe(float(amount))
    else:
        # disjoint per-shard labels, like the cluster's worker="N"
        target.gauges[f'queue_depth{{shard="{shard}"}}'] = float(amount)


@settings(deadline=None, max_examples=50)
@given(operations)
def test_piped_shard_snapshots_merge_to_in_process_accumulation(ops):
    shards = [Shard() for _ in range(SHARDS)]
    whole = Shard()
    for shard, kind, name_index, amount in ops:
        apply(shards[shard], shard, kind, name_index, amount)
        apply(whole, shard, kind, name_index, amount)
    merged = merge_snapshots(
        *(pipe_round_trip(shard.snapshot()) for shard in shards)
    )
    assert merged == whole.snapshot()


def _child_main(conn, ops):
    target = Shard()
    for shard, kind, name_index, amount in ops:
        apply(target, shard, kind, name_index, amount)
    conn.send(target.snapshot())
    conn.close()


def test_child_process_snapshot_merges_with_the_parents():
    child_ops = [
        (1, "counter", 0, 3),
        (1, "counter", 0, 4),
        (1, "counter", 1, 100),
        (1, "gauge", 0, 9),
    ]
    ctx = mp.get_context()
    receiver, sender = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_child_main, args=(sender, child_ops))
    process.start()
    sender.close()
    try:
        remote = receiver.recv()
    finally:
        process.join(timeout=30)
        receiver.close()
    assert process.exitcode == 0

    local = Shard()
    apply(local, 0, "counter", 0, 5)
    apply(local, 0, "gauge", 0, 2)
    merged = merge_snapshots(local.snapshot(), remote)
    assert merged["counters"]["shard_blocks_served"] == 12.0
    assert merged["counters"]["shard_bytes_served"] == 100.0
    assert merged["counters"]["shard_rounds_served"] == 0.0
    assert merged["gauges"]['queue_depth{shard="0"}'] == 2.0
    assert merged["gauges"]['queue_depth{shard="1"}'] == 9.0
