"""The benchmark's three workloads, driven through the public serving API.

All three are closed loops: a receiver asks for its next segment only
after it has decoded and verified the previous one, and this process
generates all load.

* ``bulk_server``: one :class:`StreamingServer` at the paper's geometry
  (n=128, k=4096, 512 KB segments) serving 16 peers with a per-round
  quota, v2 frames and no loss.  Encode and decode arithmetic dominate.
* ``relay_lossy``: a root :class:`StreamingServer` feeding a
  :class:`MulticastTree` of 2 recoding relays x 8 leaves at n=32,
  k=256, with 10% drop and 1% single-bit corruption on every hop.
  Per-frame Python work dominates: the opposite regime of the same
  wire and decoder layers.
* ``cluster_2w``: ``ServingCluster(parallel=True, num_workers=2)``
  serving exactly ``bulk_server``'s inputs, the only workload that
  crosses process boundaries.

``--seed`` makes the inputs: the origin bytes of every segment and the
order in which receivers walk the catalog.  The program's own
configuration (coefficient draws, ring placement, relay recoding and
fault schedules) is fixed by :data:`CONFIG_SEED`, so a fault of the
program shows on every seed alike or on none.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import RetryExhaustedError
from repro.faults import FaultPlan
from repro.gpu import GTX280
from repro.multicast import MulticastTree
from repro.rlnc import CodingParams, Segment
from repro.rlnc.wire import VERSION2
from repro.serving import ServingCluster
from repro.streaming import ClientSession, MediaProfile, StreamingServer

#: Seed of the program's configuration (not of the inputs).
CONFIG_SEED = 0

#: v2 frame overhead: 22-byte header plus 8-byte digest trailer.
V2_OVERHEAD = 22 + 8


def frame_bytes(params: CodingParams) -> int:
    """Wire size of one v2 frame, from the layout (not ``frame_size``)."""
    return V2_OVERHEAD + params.num_blocks + params.block_size


@dataclass
class Phase:
    """What one measured fetch phase delivered, cost and checked.

    ``intervals`` are the timed parts of the phase on its busy clock
    (rounds, or tree distributions); they exclude the host probe and
    untimed rebuilds, and ``busy_s`` is their sum.  ``fetch_spans``
    place each fetch on the same clock.  ``counts`` holds the layer
    counters the traced run turns into per-layer metrics.
    """

    busy_s: float = 0.0
    intervals: list[tuple[float, float]] = field(default_factory=list)
    verified_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    fetch_spans: list[tuple[float, float]] = field(default_factory=list)
    round_ms: list[float] = field(default_factory=list)
    wire_bytes: int = 0
    cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    counts: Counter = field(default_factory=Counter)
    failed_fetches: list[str] = field(default_factory=list)
    failed_checks: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed_checks.append(what)

    @classmethod
    def merge(cls, phases: list[Phase]) -> Phase:
        """One phase of several, their busy clocks laid end to end."""
        merged = cls()
        for phase in phases:
            offset = merged.busy_s
            merged.intervals += [(a + offset, b + offset) for a, b in phase.intervals]
            merged.fetch_spans += [(a + offset, b + offset) for a, b in phase.fetch_spans]
            merged.busy_s += phase.busy_s
            merged.verified_bytes += phase.verified_bytes
            merged.attempted += phase.attempted
            merged.failed += phase.failed
            merged.round_ms += phase.round_ms
            merged.wire_bytes += phase.wire_bytes
            merged.cpu_s += phase.cpu_s
            merged.worker_cpu_s += phase.worker_cpu_s
            merged.counts.update(phase.counts)
            merged.failed_fetches += phase.failed_fetches
            merged.failed_checks += phase.failed_checks
        return merged

    @property
    def fetch_ms(self) -> list[float]:
        return [(end - start) * 1e3 for start, end in self.fetch_spans]

    def reference_figures(self) -> dict:
        """Figures printed for reference only: p90 with its sample count."""
        samples = self.fetch_ms
        p90 = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
        return {
            "fetch_samples": len(samples),
            "fetch_p90_ms_raw": p90,
            "failed_fetches": self.failed_fetches,
        }


def _worker_cpu_seconds(pids: list[int]) -> float:
    """User + system CPU of live processes, read from ``/proc``."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / ticks


def _origin(seed: int, stream: int, params: CodingParams, count: int):
    """Seeded origin bytes of the catalog and the order receivers walk it."""
    rng = np.random.default_rng([seed, stream])
    data = [
        rng.integers(0, 256, params.segment_bytes, dtype=np.uint8).tobytes()
        for _ in range(count)
    ]
    return data, [int(i) for i in rng.permutation(count)]


def _session_counts(sessions, before=None) -> Counter:
    """Client counters accrued since ``before`` (default: since connect)."""
    counts = Counter()
    for index, session in enumerate(sessions):
        delta = session.stats if before is None else session.stats.delta(before[index])
        counts["nacks"] += delta.nacks
        counts["backoff_rounds"] += delta.backoff_rounds_waited
        counts["blocks_innovative"] += delta.blocks_innovative
        counts["blocks_discarded"] += delta.blocks_discarded
        counts["segments"] += delta.segments_completed
        counts["detected"] += delta.wire.checksum_failures + delta.wire.malformed
    return counts


class ServerWorkload:
    """16 peers fetching 512 KB segments from one endpoint (closed loop).

    Peers start in pairs, one pair per round over the first 8 rounds,
    and each pair walks the catalog in the same seeded order, so every
    encode serves two requests.  After ``seconds`` of busy time no new
    fetch starts and the loop drains, so every attempted fetch ends.
    """

    PARAMS = CodingParams(num_blocks=128, block_size=4096)
    PEERS = 16
    CATALOG = 16
    QUOTA = 16
    PARALLEL = False
    #: Set-ups timed per run (about 30 ms each); ``setup_s`` is their median.
    SETUP_REPETITIONS = 41
    #: Whether ``setup_s`` is host-normalised.  This set-up is mostly
    #: fresh allocation and preprocessing of 8 MB, which the probe does
    #: not track: normalised, its spread across runs was wider than raw
    #: (README.md, "Host normalisation").
    SETUP_NORMALISED = False

    def __init__(self, seed: int) -> None:
        self.params = self.PARAMS
        self.profile = MediaProfile(params=self.params)
        self.origin, self.order = _origin(seed, 0, self.params, self.CATALOG)
        self.frame = frame_bytes(self.params)

    def setup(self):
        """Endpoint, catalog publish (fresh segments) and session connects."""
        if self.PARALLEL:
            endpoint = ServingCluster(
                GTX280,
                self.profile,
                num_workers=2,
                seed=CONFIG_SEED,
                per_peer_round_quota=self.QUOTA,
                parallel=True,
            )
        else:
            endpoint = StreamingServer(
                GTX280,
                self.profile,
                rng=np.random.default_rng(CONFIG_SEED),
                per_peer_round_quota=self.QUOTA,
            )
        try:
            for segment_id, data in enumerate(self.origin):
                endpoint.publish(Segment.from_bytes(data, self.params, segment_id))
            sessions = [ClientSession(endpoint, peer) for peer in range(self.PEERS)]
        except BaseException:
            self.close((endpoint, []))
            raise
        return endpoint, sessions

    def close(self, state) -> None:
        endpoint, _ = state
        if self.PARALLEL:
            endpoint.close()

    def worker_pids(self, state) -> list[int]:
        endpoint, _ = state
        if not self.PARALLEL:
            return []
        return [endpoint.worker(wid).pid for wid in endpoint.live_workers]

    def _served(self, endpoint) -> tuple[int, int]:
        """(blocks served, encode calls) so far, summed over workers."""
        if not self.PARALLEL:
            return endpoint.stats.blocks_served, endpoint.stats.encode_calls
        counters = endpoint.stats_snapshot()["counters"]
        blocks = calls = 0
        for name, value in counters.items():
            if name.startswith("server_blocks_served{"):
                blocks += int(value)
            elif name.startswith("server_encode_calls{"):
                calls += int(value)
        return blocks, calls

    def run_phase(self, state, seconds, probe) -> Phase:
        endpoint, sessions = state
        params = self.params
        phase = Phase()
        pids = self.worker_pids(state)
        stats_before = [session.stats.snapshot() for session in sessions]
        served_before = self._served(endpoint)
        cpu_start = time.process_time()
        workers_start = _worker_cpu_seconds(pids)

        position = [peer // 2 for peer in range(self.PEERS)]
        fetching: dict[int, tuple[int, float]] = {}
        busy = 0.0
        round_index = 0
        draining = False
        while True:
            start = time.perf_counter()
            if not draining:
                for peer in range(min(self.PEERS, 2 * (round_index + 1))):
                    if peer not in fetching:
                        segment_id = self.order[position[peer] % self.CATALOG]
                        position[peer] += 1
                        sessions[peer].begin_segment(segment_id)
                        fetching[peer] = (segment_id, busy)
                        phase.attempted += 1
            for peer in fetching:
                sessions[peer].pre_round()
            frames = endpoint.collect_round(
                endpoint.begin_round(format="frames", version=VERSION2)
            )
            for peer in fetching:
                data = frames.get(peer)
                if data is not None:
                    phase.wire_bytes += len(data)
                sessions[peer].intake(data)
            for peer in [p for p in fetching if sessions[p].complete]:
                segment_id, began = fetching.pop(peer)
                segment = sessions[peer].finish_segment(params.segment_bytes)
                if segment.to_bytes() == self.origin[segment_id]:
                    phase.verified_bytes += params.segment_bytes
                else:
                    phase.failed += 1
                    phase.check(False, f"peer {peer} segment {segment_id} bytes differ")
                elapsed = time.perf_counter() - start
                phase.fetch_spans.append((began, busy + elapsed))
            elapsed = time.perf_counter() - start
            phase.intervals.append((busy, busy + elapsed))
            busy += elapsed
            phase.round_ms.append(elapsed * 1e3)
            round_index += 1
            draining = draining or busy >= seconds
            if draining and not fetching:
                break
            if probe is not None:
                probe.between_rounds(busy)

        phase.busy_s = busy
        phase.cpu_s = time.process_time() - cpu_start
        phase.worker_cpu_s = _worker_cpu_seconds(pids) - workers_start
        phase.cpu_s += phase.worker_cpu_s
        phase.counts = _session_counts(sessions, stats_before)
        blocks, calls = self._served(endpoint)
        phase.counts["blocks_served"] = blocks - served_before[0]
        phase.counts["encode_calls"] = calls - served_before[1]
        phase.counts["coded_bytes"] = phase.counts["blocks_served"] * params.block_size
        phase.counts["frames"] = phase.wire_bytes // self.frame
        verified = phase.verified_bytes // params.segment_bytes
        phase.check(
            phase.wire_bytes % self.frame == 0,
            "delivered bytes are not whole v2 frames",
        )
        phase.check(
            phase.wire_bytes == phase.counts["blocks_served"] * self.frame,
            "delivered bytes differ from blocks served x frame size",
        )
        phase.check(
            phase.wire_bytes >= verified * params.num_blocks * self.frame,
            "wire bytes below the v2 lower bound",
        )
        phase.check(phase.counts["detected"] == 0, "damaged frames on a lossless wire")
        return phase


class ClusterWorkload(ServerWorkload):
    """``bulk_server``'s inputs served by a 2-process cluster."""

    PARALLEL = True
    #: About 80 ms each, most of it spawning the workers.
    SETUP_REPETITIONS = 51
    SETUP_NORMALISED = True


class RelayWorkload:
    """A 2 x 8 recoding multicast tree over a lossy, corrupting wire.

    A fetch is one segment reaching all 16 leaves through
    :meth:`MulticastTree.distribute`.  One pass distributes the 32-
    segment catalog in seeded order from a fresh root and tree, so
    every pass makes the same coefficient draws and fault schedules
    and hits the same program faults; the phase runs whole passes.

    A relay whose buffer fills with a dependent row stalls below full
    rank (``RelayUplink.pre_round`` stops asking once it *buffers*
    ``num_blocks`` rows), its leaves exhaust their retries and
    ``distribute`` raises.  The workload then counts every incomplete
    leaf as a failed fetch, verifies the leaves that completed, and
    continues with a fresh tree.
    """

    PARAMS = CodingParams(num_blocks=32, block_size=256)
    RELAYS = 2
    LEAVES = 8
    CATALOG = 32
    DROP = 0.10
    CORRUPT = 0.01
    #: About 3 ms each.
    SETUP_REPETITIONS = 101
    SETUP_NORMALISED = True

    def __init__(self, seed: int) -> None:
        self.params = self.PARAMS
        self.profile = MediaProfile(params=self.params)
        self.origin, self.order = _origin(seed, 1, self.params, self.CATALOG)
        self.frame = frame_bytes(self.params)
        self.segments: list[Segment] = []

    def _root(self, segments) -> StreamingServer:
        root = StreamingServer(
            GTX280, self.profile, rng=np.random.default_rng(CONFIG_SEED)
        )
        for segment in segments:
            root.publish(segment)
        return root

    def _tree(self, root, index: int):
        """Tree number ``index`` of a pass, with its own fault schedules."""
        base = 1000 * index

        def plan(offset: int) -> FaultPlan:
            return FaultPlan(
                seed=base + offset, drop_rate=self.DROP, corrupt_rate=self.CORRUPT
            )

        return MulticastTree(
            root,
            self.profile,
            relays=self.RELAYS,
            leaves_per_relay=self.LEAVES,
            seed=index,
            uplink_fault_plans={i: plan(i) for i in range(self.RELAYS)},
            leaf_fault_plans={
                (i, j): plan(100 + self.LEAVES * i + j)
                for i in range(self.RELAYS)
                for j in range(self.LEAVES)
            },
        )

    def setup(self):
        """Root, catalog publish (fresh segments) and the tree's connects.

        The last set-up's segments, their preprocessing now cached,
        serve every pass of the measured phase.
        """
        self.segments = [
            Segment.from_bytes(data, self.params, segment_id)
            for segment_id, data in enumerate(self.origin)
        ]
        root = self._root(self.segments)
        return root, self._tree(root, 0)

    def close(self, state) -> None:
        self.segments = []

    def worker_pids(self, state) -> list[int]:
        return []

    def run_phase(self, state, seconds, probe) -> Phase:
        phase = Phase()
        counts = Counter()
        cpu_start = time.process_time()
        busy = 0.0
        while busy < seconds:
            busy = self._pass(phase, counts, busy, probe)
        phase.busy_s = busy
        phase.cpu_s = time.process_time() - cpu_start
        phase.counts = counts
        phase.wire_bytes = counts["hop_bytes_root"] + counts["hop_bytes_relay"]
        counts["frames"] = phase.wire_bytes // self.frame
        phase.check(
            counts["relay_frame_mismatch"] == 0,
            "relay bytes served differ from blocks served x frame size",
        )
        phase.check(
            counts["detected"] == counts["corrupted"],
            f"{counts['detected']} damaged frames detected, "
            f"{counts['corrupted']} corrupted",
        )
        floor = self.params.num_blocks * self.frame
        phase.check(
            counts["hop_bytes_relay"] >= counts["leaf_segments"] * floor,
            "relay-to-leaf wire bytes below the v2 lower bound",
        )
        phase.check(
            counts["hop_bytes_root"] >= counts["relay_segments"] * floor,
            "root-to-relay wire bytes below the v2 lower bound",
        )
        return phase

    def _pass(self, phase: Phase, counts: Counter, busy: float, probe) -> float:
        """Distribute the whole catalog once; returns the new busy time."""
        params = self.params
        root = self._root(self.segments)
        tree_index = 0
        tree = self._tree(root, tree_index)
        decoded = self._capture(tree)
        for position, segment_id in enumerate(self.order):
            if probe is not None:
                probe.between_rounds(busy)
            segment = self.segments[segment_id]
            decoded.clear()
            start = time.perf_counter()
            stalled = False
            try:
                report = tree.distribute(segment)
                counts["tree_rounds"] += report.rounds
                counts["tree_segments"] += 1
            except RetryExhaustedError:
                stalled = True
                for session in tree.leaf_sessions:
                    if session.complete:
                        session.finish_segment(params.segment_bytes)
            expected = self.origin[segment_id]
            leaves_ok = relays_ok = 0
            for cohort in tree.cohorts:
                results = [decoded[id(s)] for s in cohort if id(s) in decoded]
                ok = sum(data == expected for data in results)
                phase.check(ok == len(results), f"segment {segment_id} bytes differ")
                leaves_ok += ok
                relays_ok += ok > 0
            elapsed = time.perf_counter() - start
            began, busy = busy, busy + elapsed
            phase.intervals.append((began, busy))
            attempted = self.RELAYS * self.LEAVES
            phase.attempted += attempted
            phase.failed += attempted - leaves_ok
            phase.verified_bytes += leaves_ok * params.segment_bytes
            counts["leaf_segments"] += leaves_ok
            counts["relay_segments"] += relays_ok
            if not stalled:
                phase.fetch_spans.append((began, busy))
                phase.round_ms.append(elapsed * 1e3 / report.rounds)
            else:
                phase.failed_fetches.append(
                    f"pass position {position}, segment {segment_id}: "
                    f"{attempted - leaves_ok} leaves incomplete"
                )
                self._harvest(tree, counts)
                for uplink in tree.uplinks:
                    root.disconnect(uplink.peer_id)
                tree_index += 1
                tree = self._tree(root, tree_index)
                decoded = self._capture(tree)
        self._harvest(tree, counts)
        counts["hop_bytes_root"] += root.stats.blocks_served * self.frame
        counts["blocks_served"] += root.stats.blocks_served
        counts["encode_calls"] += root.stats.encode_calls
        counts["coded_bytes"] += root.stats.blocks_served * params.block_size
        return busy

    def _capture(self, tree) -> dict[int, bytes]:
        """Keep each leaf's decoded bytes for the benchmark's own check.

        ``distribute`` finishes every leaf itself and returns only a
        flag; the per-instance hook hands the recovered segment to the
        benchmark too.  It calls the class attribute at call time, so
        the traced run's span wrapper still sees the call.
        """
        decoded: dict[int, bytes] = {}
        for session in tree.leaf_sessions:
            def finish(original_length=None, session=session):
                segment = ClientSession.finish_segment(session, original_length)
                decoded[id(session)] = segment.to_bytes()
                return segment

            session.finish_segment = finish
        return decoded

    def _harvest(self, tree, counts: Counter) -> None:
        """Fold a finished tree's counters into the phase totals."""
        leaves = tree.leaf_sessions
        for session in leaves:
            # The capture hook refers to its session: drop it so the
            # tree is freed now, not by a later cyclic collection.
            del session.finish_segment
        counts.update(_session_counts(leaves))
        for uplink in tree.uplinks:
            counts["detected"] += uplink.wire.checksum_failures + uplink.wire.malformed
        for receiver in [*tree.uplinks, *leaves]:
            counts["dropped"] += receiver.fault_plan.counters.dropped
            counts["corrupted"] += receiver.fault_plan.counters.corrupted
        for relay in tree.relays:
            counts["hop_bytes_relay"] += relay.stats.bytes_served
            if relay.stats.bytes_served != relay.stats.blocks_served * self.frame:
                counts["relay_frame_mismatch"] += 1


WORKLOADS = {
    "bulk_server": ServerWorkload,
    "relay_lossy": RelayWorkload,
    "cluster_2w": ClusterWorkload,
}
