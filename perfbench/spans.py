"""Span timers around each layer's public functions, for the traced run.

:func:`installed` wraps the functions in :data:`BOUNDARIES` with timers
that record ``(name, start, end, parent)`` for every call, and restores
the originals on exit.  The wrappers live here, in the benchmark, and
exist only while a traced chunk of the phase runs; nothing inside the program is
changed.  A span's self time is its duration minus the part its child
spans cover, so self times plus the wall the benchmark's own loop spends
outside any span (``unaccounted``) add up to the phase's wall.

On ``cluster_2w`` the server, scheduler, encoder and wire-pack layers run
inside the worker processes, which the wrappers do not reach: their time
shows only as ``cluster.barrier`` wait, and their metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict

from repro.cluster.cluster import ServingCluster
from repro.faults import FaultPlan
from repro.kernels.encode import GpuEncoder
from repro.multicast import relay as relay_module
from repro.multicast import tree as tree_module
from repro.multicast.relay import RelayNode
from repro.multicast.tree import MulticastTree, RelayUplink
from repro.rlnc.decoder import ProgressiveDecoder
from repro.rlnc.recoder import Recoder
from repro.streaming import client as client_module
from repro.streaming import server as server_module
from repro.streaming.client import ClientSession
from repro.streaming.scheduler import ServeRoundScheduler
from repro.streaming.server import StreamingServer

MB = 1e6

#: ``(owner, attribute, span name)``: the layer boundaries timed.  A
#: module-level function is patched where the caller looks it up.
BOUNDARIES = (
    (ClientSession, "pre_round", "streaming.client.pre_round"),
    (ClientSession, "intake", "streaming.client.intake"),
    (ClientSession, "finish_segment", "streaming.client.finish_segment"),
    (client_module, "unpack_frame", "rlnc.wire.unpack"),
    (tree_module, "unpack_frame", "rlnc.wire.unpack"),
    (server_module, "pack_blocks", "rlnc.wire.pack"),
    (relay_module, "pack_blocks", "rlnc.wire.pack"),
    (ProgressiveDecoder, "consume_batch", "rlnc.decoder.intake"),
    (ProgressiveDecoder, "recover_segment", "rlnc.decoder.recover"),
    (StreamingServer, "request_blocks", "streaming.server.request"),
    (StreamingServer, "serve_round", "streaming.server.serve_round"),
    (ServeRoundScheduler, "plan_round", "streaming.scheduler.plan"),
    (GpuEncoder, "encode", "kernels.encode"),
    (Recoder, "recode_matrix", "rlnc.recoder.emit"),
    (Recoder, "add_batch", "rlnc.recoder.intake"),
    (RelayNode, "request_blocks", "multicast.relay.request"),
    (RelayNode, "serve_round", "multicast.relay.serve_round"),
    (RelayUplink, "pre_round", "multicast.tree.uplink_pre_round"),
    (RelayUplink, "intake", "multicast.tree.uplink_intake"),
    (MulticastTree, "distribute", "multicast.tree.distribute"),
    (ServingCluster, "request_blocks", "cluster.request"),
    (ServingCluster, "begin_round", "cluster.dispatch"),
    (ServingCluster, "collect_round", "cluster.barrier"),
    (FaultPlan, "apply_frames", "faults.apply"),
)


class SpanRecorder:
    """Spans kept in memory: name, start, end and parent span index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name: str, function):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack

        @functools.wraps(function)
        def timed(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                stack.pop()

        return timed

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed self time, call count."""
        duration = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0.0] * len(duration)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += duration[index]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, name in enumerate(self.names):
            total[name] += duration[index]
            own[name] += duration[index] - covered[index]
            calls[name] += 1
        return total, own, calls


@contextlib.contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every boundary in :data:`BOUNDARIES`; restore them on exit."""
    originals = []
    try:
        for owner, attribute, name in BOUNDARIES:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


#: Per-layer metric -> (unit, how it is computed).  ``self``/``total``
#: read span time per verified MB; ``per_round`` reads span time per
#: call; the rest are counts from the phase.
PER_LAYER = {
    "streaming.client.intake_self_ms_per_mb": ("ms/MB", "self", "streaming.client.intake"),
    "rlnc.wire.unpack_ms_per_mb": ("ms/MB", "total", "rlnc.wire.unpack"),
    "streaming.server.request_ms_per_mb": ("ms/MB", "total", "streaming.server.request"),
    "streaming.scheduler.plan_ms_per_mb": ("ms/MB", "total", "streaming.scheduler.plan"),
    "streaming.server.serve_round_self_ms_per_mb": (
        "ms/MB", "self", "streaming.server.serve_round"
    ),
    "rlnc.wire.pack_ms_per_mb": ("ms/MB", "total", "rlnc.wire.pack"),
    "kernels.encode.ms_per_mb": ("ms/MB", "total", "kernels.encode"),
    "rlnc.decoder.intake_ms_per_mb": ("ms/MB", "total", "rlnc.decoder.intake"),
    "rlnc.decoder.recover_ms_per_mb": ("ms/MB", "total", "rlnc.decoder.recover"),
    "rlnc.recoder.emit_ms_per_mb": ("ms/MB", "total", "rlnc.recoder.emit"),
    "rlnc.recoder.intake_ms_per_mb": ("ms/MB", "total", "rlnc.recoder.intake"),
    "multicast.relay.serve_round_self_ms_per_mb": ("ms/MB", "self", "multicast.relay.serve_round"),
    "cluster.dispatch_ms_per_round": ("ms", "per_round", "cluster.dispatch"),
    "cluster.barrier_ms_per_round": ("ms", "per_round", "cluster.barrier"),
}


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(plain, traced, recorder: SpanRecorder, factor, plain_factor) -> dict:
    """Every per-layer metric of the traced phase.

    Times are multiplied by ``factor`` (rates divided by it).  ``plain``
    is the untraced chunks of the same run, interleaved with the traced
    ones and normalised by ``plain_factor``; the ratio of their goodput
    to the traced chunks' is the tracing overhead.
    """
    total, own, calls = recorder.totals()
    counts = traced.counts
    mb = traced.verified_bytes / MB
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for name, (unit, kind, span) in PER_LAYER.items():
        if kind == "per_round":
            value = _share(total[span] * 1e3, calls[span])
        else:
            value = (own if kind == "self" else total)[span] * 1e3 / mb
        put(name, value * factor, unit)
    segments = counts["segments"]
    put("streaming.client.nacks_per_segment", _share(counts["nacks"], segments), "count")
    put(
        "streaming.client.backoff_rounds_per_segment",
        _share(counts["backoff_rounds"], segments),
        "count",
    )
    put(
        "multicast.tree.rounds_per_segment",
        _share(counts["tree_rounds"], counts["tree_segments"]),
        "count",
    )
    put(
        "streaming.scheduler.blocks_per_encode",
        _share(counts["blocks_served"], counts["encode_calls"]),
        "count",
    )
    put(
        "kernels.encode.coded_mb_s",
        _share(counts["coded_bytes"] / MB, total["kernels.encode"] * factor),
        "MB/s",
    )
    put(
        "rlnc.decoder.innovative_ratio",
        _share(
            counts["blocks_innovative"],
            counts["blocks_innovative"] + counts["blocks_discarded"],
        ),
        "ratio",
    )
    put("rlnc.wire.frames_per_mb", counts["frames"] / mb, "count/MB")
    worker_cpu = traced.worker_cpu_s
    parent_cpu = traced.cpu_s - worker_cpu if worker_cpu else 0.0
    put("cluster.worker_cpu_ms_per_mb", worker_cpu * 1e3 / mb * factor, "ms/MB")
    put("cluster.parent_cpu_ms_per_mb", parent_cpu * 1e3 / mb * factor, "ms/MB")
    put("faults.frames_dropped_per_mb", counts["dropped"] / mb, "count/MB")
    put("faults.frames_corrupted_per_mb", counts["corrupted"] / mb, "count/MB")
    put("round.ms_p50", statistics.median(traced.round_ms) * factor, "ms")
    put(
        "unaccounted_ms_per_mb",
        (traced.busy_s - sum(own.values())) * 1e3 / mb * factor,
        "ms/MB",
    )
    plain_goodput = plain.verified_bytes / (plain.busy_s * plain_factor)
    traced_goodput = traced.verified_bytes / (traced.busy_s * factor)
    put("obs.trace_overhead_ratio", plain_goodput / traced_goodput, "ratio")
    return metrics


def accounting(traced, recorder: SpanRecorder, factor: float) -> dict:
    """Self time per span name and the unaccounted rest, in ms per MB.

    The entries sum to the traced phase's wall per MB.
    """
    _, own, calls = recorder.totals()
    mb = traced.verified_bytes / MB
    table = {
        name: {"self_ms_per_mb": own[name] * 1e3 / mb * factor, "calls": calls[name]}
        for name in sorted(own, key=own.get, reverse=True)
    }
    table["unaccounted"] = {
        "self_ms_per_mb": (traced.busy_s - sum(own.values())) * 1e3 / mb * factor,
        "calls": 0,
    }
    table["wall"] = {"self_ms_per_mb": traced.busy_s * 1e3 / mb * factor, "calls": 0}
    return table
