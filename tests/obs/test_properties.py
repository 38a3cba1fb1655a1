"""Property tests: observability must never change what the code computes.

Three laws, checked with Hypothesis:

* **transparency** — the serving pipeline produces byte-identical coded
  blocks with tracing enabled and disabled (instrumentation observes,
  never participates);
* **round-trippability** — registry snapshots, with a stats object's
  ``series()`` export folded in, survive JSON encode/decode unchanged;
* **associativity** — merging per-thread snapshots gives the same total
  in any grouping order, so sharded registries compose.
"""

import json
import threading
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import GTX280
from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.obs.stats import CumulativeStats
from repro.obs.trace import get_tracer, tracing
from repro.rlnc import CodingParams, Segment
from repro.streaming import MediaProfile, StreamingServer

PROFILE = MediaProfile(params=CodingParams(8, 64))


def served_bytes(seed, *, traced):
    """One deterministic serve+round pass; returns every wire byte."""
    server = StreamingServer(GTX280, PROFILE, rng=np.random.default_rng(seed))
    payload_rng = np.random.default_rng(seed + 1)
    payload = payload_rng.integers(
        0, 256, size=PROFILE.params.segment_bytes, dtype=np.uint8
    ).tobytes()
    server.publish_segment(Segment.from_bytes(payload, PROFILE.params, segment_id=0))
    for peer in range(3):
        server.connect(peer)
        server.request_blocks(peer, 0, 4)
    out = []
    with tracing(traced):
        direct = server.serve(0, 0, 4)
        frames = server.serve_round()
    for block in direct:
        out.append(block.coefficients.tobytes())
        out.append(block.payload.tobytes())
    for peer in sorted(frames):
        out.append(bytes(frames[peer]))
    return b"".join(out)


class TestTracingTransparency:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_hot_paths_are_byte_identical_with_tracing(self, seed):
        try:
            untraced = served_bytes(seed, traced=False)
            traced = served_bytes(seed, traced=True)
        finally:
            get_tracer().clear()
        assert untraced == traced


counter_events = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=8,
)
gauge_events = st.lists(
    st.tuples(
        st.sampled_from(["g", "h"]),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    max_size=4,
)
# Observations are integral in practice (block counts, integer
# nanoseconds), and integer-valued float sums below 2**53 are exact —
# which is what makes the histogram "sum" field associative.  Arbitrary
# floats would fail on IEEE addition order, not on the merge logic.
histogram_events = st.lists(
    st.integers(min_value=0, max_value=2**40).map(float),
    max_size=8,
)


@dataclass
class Tally(CumulativeStats):
    """A stats object whose ``series()`` export fills the counters."""

    a: int = 0
    b: int = 0
    c: int = 0


def build_snapshot(counters, gauges, observations):
    tally = Tally()
    for name, amount in counters:
        setattr(tally, name, getattr(tally, name) + amount)
    registry = MetricsRegistry()
    for name, value in gauges:
        registry.gauge(name).set(value)
    for value in observations:
        registry.histogram("hist").observe(value)
    return merge_snapshots(tally.series("tally"), registry.snapshot())


class TestSnapshotProperties:
    @settings(max_examples=50, deadline=None)
    @given(counters=counter_events, gauges=gauge_events, obs=histogram_events)
    def test_snapshots_json_round_trip(self, counters, gauges, obs):
        snapshot = build_snapshot(counters, gauges, obs)
        assert json.loads(json.dumps(snapshot)) == snapshot

    @settings(max_examples=50, deadline=None)
    @given(
        first=st.tuples(counter_events, gauge_events, histogram_events),
        second=st.tuples(counter_events, gauge_events, histogram_events),
        third=st.tuples(counter_events, gauge_events, histogram_events),
    )
    def test_merge_is_associative(self, first, second, third):
        a, b, c = (build_snapshot(*events) for events in (first, second, third))
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right

    @settings(max_examples=20, deadline=None)
    @given(
        per_thread=st.lists(
            st.lists(st.integers(min_value=1, max_value=50), max_size=6),
            min_size=2,
            max_size=4,
        )
    )
    def test_per_thread_registries_merge_to_the_global_total(self, per_thread):
        registries = [MetricsRegistry() for _ in per_thread]
        threads = []

        def worker(registry, amounts):
            histogram = registry.histogram("hits")
            for amount in amounts:
                histogram.observe(float(amount))

        for registry, amounts in zip(registries, per_thread):
            thread = threading.Thread(target=worker, args=(registry, amounts))
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join()
        snapshots = [registry.snapshot() for registry in registries]
        merged = merge_snapshots(*snapshots)
        hits = merged["histograms"].get("hits", {})
        assert hits.get("count", 0) == sum(len(amounts) for amounts in per_thread)
        assert hits.get("sum", 0) == sum(sum(amounts) for amounts in per_thread)
