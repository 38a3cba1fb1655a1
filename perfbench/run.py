"""End-to-end serving benchmark: one workload, one JSON result line.

Runs one workload (see ``workloads.py``) against the public serving API
built from this checkout's ``src/``, checks every delivered segment
against the benchmark's own origin bytes, and prints the metrics as the
last line of standard output::

    python3 perfbench/run.py --workload bulk_server --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with no
instrumentation.  ``--trace 1`` splits the same fetch loop into chunks,
alternately plain and with span timers wrapped around each layer's
public functions (``spans.py``), and reports the per-layer metrics plus
the tracing overhead.

Every timed metric is host-normalised: a fixed CPU probe runs between
rounds, and times are scaled by ``PROBE_REF`` over the median of the
probes taken around them (rates by the inverse).  The raw value and the
factor are printed beside each metric.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Probe time (seconds) that normalised figures are scaled to; how it
#: was fixed is in README.md, "Host normalisation".
PROBE_REF = 0.001000

#: Busy time between probes in a measured phase (plus one probe per
#: set-up): about one per round.  The host's speed changes within
#: seconds, and sparser probing left a few percent of sampling error in
#: the factor.
PROBE_INTERVAL_S = 0.075

#: Probes around a round or a fetch that normalise its time.
LOCAL_PROBES = 16

#: Chunks of a traced run (``True``: traced), in this order.  The
#: host's speed drifts by several percent within seconds, so the plain
#: and traced chunks are interleaved in a pattern that cancels a drift
#: which is linear or quadratic across the run.
TRACE_CHUNKS = (False, True, True, False, True, False, False, True)

#: Untimed warm-up fetch time on a throwaway endpoint, then on the kept one.
WARMUP_SECONDS = 1.0
REWARM_SECONDS = 0.5

#: Environment variables that select program behaviour; cleared so the
#: benchmark always measures the defaults.
_BEHAVIOUR_ENV = ("REPRO_GF_BACKEND", "REPRO_WIDE_KERNEL", "REPRO_MP_START_METHOD")

MB = 1e6


class HostProbe:
    """A fixed CPU task timed between rounds to track the host's speed.

    About 0.8 ms in three parts: a pure-Python integer loop, a numpy
    uint8 XOR over 256 KB, and cutting a 256 KB buffer into 800
    frame-sized ``bytes`` objects indexed in a dict.  The last part
    makes the probe as sensitive to host slowdowns as the workloads'
    per-frame Python work (README.md, "Host normalisation").  It runs
    outside every timed call; the median of the probes around a round
    gives that round's normalisation factor.
    """

    LOOP = 2800
    FRAMES = 800
    FRAME = 318

    def __init__(self) -> None:
        ramp = np.arange(1 << 18, dtype=np.uint32)
        self._a = ramp.astype(np.uint8)
        self._b = (ramp * 7).astype(np.uint8)
        self._out = np.empty_like(self._a)
        self._buffer = self._a.tobytes()
        self.samples: list[float] = []
        #: CPU time spent in probes, to be taken out of a phase's CPU.
        self.cpu_s = 0.0
        #: ``(busy time, probe seconds)`` of the current phase's probes.
        self.marks: list[tuple[float, float]] = []
        self._next_at = 0.0

    def run(self) -> float:
        """Time one probe with the collector off, so that the timing
        never includes a collection of the program's objects."""
        cpu = time.process_time()
        gc.disable()
        try:
            start = time.perf_counter()
            self._task()
            sample = time.perf_counter() - start
        finally:
            gc.enable()
        self.cpu_s += time.process_time() - cpu
        self.samples.append(sample)
        return sample

    def _task(self) -> int:
        acc = 0
        for i in range(self.LOOP):
            acc = (acc * 31 + i) & 0xFFFF
        np.bitwise_xor(self._a, self._b, out=self._out)
        size = self.FRAME
        frames = [self._buffer[i * size : (i + 1) * size] for i in range(self.FRAMES)]
        index = {i: (frame[:22], len(frame)) for i, frame in enumerate(frames)}
        return acc + len(index)

    def start_phase(self) -> None:
        """Forget the previous phase's probe marks."""
        self._next_at = 0.0
        self.marks = []

    def between_rounds(self, busy: float) -> None:
        """Run the probe if the phase's busy clock passed the next mark."""
        if busy >= self._next_at:
            self.marks.append((busy, self.run()))
            self._next_at += PROBE_INTERVAL_S

    def local_factors(self, spans: list[tuple[float, float]]) -> list[float]:
        """Per-span factor from the median of the :data:`LOCAL_PROBES`
        nearest probes.

        The host's speed drifts within a run, so each round and each
        fetch is scaled by the probes taken around it on the phase's
        busy clock rather than by the run's mean.  The median keeps one
        probe that a stray stall slowed from moving the factor.
        """
        times = [busy for busy, _ in self.marks]
        width = min(LOCAL_PROBES, len(times))
        factors = []
        for start, end in spans:
            middle = bisect.bisect(times, (start + end) / 2)
            first = min(max(middle - width // 2, 0), len(times) - width)
            window = self.marks[first : first + width]
            factors.append(PROBE_REF / statistics.median(s for _, s in window))
        return factors

    def phase_factor(self, phase) -> float:
        """Busy-time-weighted mean of the local factors of a phase's intervals."""
        factors = self.local_factors(phase.intervals)
        scaled = sum(
            (end - start) * factor
            for (start, end), factor in zip(phase.intervals, factors)
        )
        return scaled / phase.busy_s


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _prepare_environment() -> None:
    """Point every cache into the checkout and put ``src/`` on the path."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {source}")
    cache = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    cache.mkdir(parents=True, exist_ok=True)
    for name in _BEHAVIOUR_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_WIDE_KERNEL_CACHE"] = str(cache / "regionops")
    os.environ["REPRO_MATMUL_TUNE_CACHE"] = str(cache / "matmul_tune.json")
    sys.path.insert(0, str(source))


def _peak_rss_mb(workload, state) -> float:
    """Peak RSS of this process, plus the largest worker's on a cluster."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    workers = [_vm_hwm(pid) for pid in workload.worker_pids(state)]
    return (own + max(workers, default=0)) / MB


def _vm_hwm(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _measure(workload, state, seconds: float, probe: HostProbe):
    """One measured phase with its phase factor and per-fetch factors.

    The probes' own CPU time is taken out of the phase's CPU.
    """
    gc.collect()
    probe.start_phase()
    probe_cpu = probe.cpu_s
    phase = workload.run_phase(state, seconds, probe)
    phase.cpu_s -= probe.cpu_s - probe_cpu
    return phase, probe.phase_factor(phase), probe.local_factors(phase.fetch_spans)


def _set_ups(workload, probe: HostProbe):
    """Time :attr:`SETUP_REPETITIONS` set-ups; keep the last one's state.

    Each set-up follows one probe; ``setup_s`` is the median set-up,
    scaled by ``PROBE_REF`` over the median of those probes where the
    workload's ``SETUP_NORMALISED`` says so.  The
    previous state is dropped before the next set-up starts, so two
    endpoints are never alive together (that would inflate the peak
    RSS).
    """
    times, probes = [], []
    state = None
    for _ in range(workload.SETUP_REPETITIONS):
        if state is not None:
            workload.close(state)
            state = None
        gc.collect()
        probes.append(probe.run())
        start = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - start)
    factor = PROBE_REF / statistics.median(probes) if workload.SETUP_NORMALISED else 1.0
    return state, times, factor


def _traced(workload, state, seconds: float, probe: HostProbe, recorder):
    """The phase in :data:`TRACE_CHUNKS`, plain and traced chunks merged.

    Returns ``(plain, plain factor, traced, traced factor)``; a merged
    factor is the busy-time-weighted mean of its chunks' factors.
    """
    import spans
    from workloads import Phase

    chunks = {False: [], True: []}
    for traced in TRACE_CHUNKS:
        with spans.installed(recorder) if traced else contextlib.nullcontext():
            phase, factor, _ = _measure(
                workload, state, seconds / len(TRACE_CHUNKS), probe
            )
        chunks[traced].append((phase, factor))

    def merged(traced: bool):
        phases = [phase for phase, _ in chunks[traced]]
        scaled = sum(phase.busy_s * factor for phase, factor in chunks[traced])
        return Phase.merge(phases), scaled / sum(phase.busy_s for phase in phases)

    return (*merged(False), *merged(True))


def _reap_processes() -> None:
    """Stop every process the run started and wait for each to end.

    A workload's ``close`` stops its worker processes; any still alive
    (on an error path) are killed here.  Creating shared memory also
    starts multiprocessing's resource tracker, a process that by design
    outlives this one and, once orphaned, can stay behind unreaped: it
    is stopped here and waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _prepare_environment()
    try:
        return _run(args)
    finally:
        _reap_processes()


def _run(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(HERE))
    import spans
    import workloads
    from repro.gf256 import regionops

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}"
        )
    loaded = regionops.kernel_available()
    print(f"compiled wide kernel loaded: {'yes' if loaded else 'no'}")
    if not loaded:
        # The numpy fallback is a different program under the same names.
        print(f"error: {regionops.load_error()}", file=sys.stderr)
        return 3

    workload = workloads.WORKLOADS[args.workload](args.seed)
    probe = HostProbe()
    state = workload.setup()
    try:
        workload.run_phase(state, WARMUP_SECONDS, None)
    finally:
        workload.close(state)
        state = None

    state, setups, setup_factor = _set_ups(workload, probe)
    try:
        workload.run_phase(state, REWARM_SECONDS, None)
        if args.trace:
            recorder = spans.SpanRecorder()
            plain, plain_factor, traced, traced_factor = _traced(
                workload, state, args.seconds, probe, recorder
            )
            phases = [plain, traced]
        else:
            measured, measured_factor, fetch_factors = _measure(
                workload, state, args.seconds, probe
            )
            phases = [measured]
        peak_rss_mb = _peak_rss_mb(workload, state)
    finally:
        workload.close(state)

    if args.trace:
        metrics = spans.per_layer_metrics(
            plain, traced, recorder, traced_factor, plain_factor
        )
        unscaled = spans.per_layer_metrics(plain, traced, recorder, 1.0, 1.0)
    else:
        metrics = end_to_end_metrics(
            measured, setups, peak_rss_mb,
            measured_factor, fetch_factors, setup_factor,
        )
        ones = [1.0] * len(fetch_factors)
        unscaled = end_to_end_metrics(measured, setups, peak_rss_mb, 1.0, ones, 1.0)
    raw = {name: entry["value"] for name, entry in unscaled.items()}
    for name, entry in metrics.items():
        factor = entry["value"] / raw[name] if raw[name] else 1.0
        print(
            f"{name:46s} {entry['value']:12.6g} {entry['unit']:8s}"
            f" raw {raw[name]:.6g} factor {factor:.4f}"
        )
    failures = [check for phase in phases for check in phase.failed_checks]
    for check in failures:
        print(f"check failed: {check}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "raw": raw,
        "probe_median_s": statistics.median(probe.samples),
        "probes": len(probe.samples),
        "setup_runs_s": setups,
        **phases[-1].reference_figures(),
    }
    if args.trace:
        detail["accounting"] = spans.accounting(traced, recorder, traced_factor)
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def end_to_end_metrics(
    phase, setups, peak_rss_mb, factor, fetch_factors, setup_factor
) -> dict:
    """The ``--trace 0`` metrics, host-normalised by the factors given.

    ``factor`` scales the phase's times (rates by its inverse),
    ``fetch_factors`` each fetch latency and ``setup_factor`` set-up time.
    """
    verified_mb = phase.verified_bytes / MB
    fetch_ms = [ms * f for ms, f in zip(phase.fetch_ms, fetch_factors)]

    def entry(value: float, unit: str) -> dict:
        return {"value": value, "unit": unit}

    return {
        "goodput_mb_s": entry(verified_mb / phase.busy_s / factor, "MB/s"),
        "fetch_p50_ms": entry(statistics.median(fetch_ms), "ms"),
        "cpu_ms_per_mb": entry(phase.cpu_s * 1e3 / verified_mb * factor, "ms/MB"),
        "wire_bytes_per_byte": entry(phase.wire_bytes / phase.verified_bytes, "B/B"),
        "setup_s": entry(statistics.median(setups) * setup_factor, "s"),
        "peak_rss_mb": entry(peak_rss_mb, "MB"),
    }


if __name__ == "__main__":
    sys.exit(main())
