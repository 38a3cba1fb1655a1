#!/usr/bin/env python
"""Fail CI when a hot-path throughput regresses against the baseline.

Compares a freshly generated ``BENCH_hot_paths.json`` against the
committed baseline (the copy checked out at the build's ref).  Every
higher-is-better throughput key below may drop at most ``--tolerance``
(default 25%) before the check fails.  Absolute checks ride along: the
parallel cluster substrate must have produced byte-exact output
(``cluster_scaleout.byte_exact``), hosts whose fresh run set
``wall_gate`` must clear the 1.3x/1.5x wall floors at 2/4 workers, the
wide backend must clear its 5x floor over the seed-era auto choice
whenever the compiled kernel loaded, and the self-healing run
(``cluster_failover``) must be byte-exact with every detected failure
recovered — its detection-latency / recovery-rounds / degraded-slowdown
ceilings are enforced under ``failover_gate`` (>= 4 cores), mirroring
``wall_gate``.  The load harness (``loadtest_scale``) must have modelled
at least 10^5 sessions at peak, kept the p99 admission delay bounded,
scaled up at least once, and stayed byte-exact on its sampled cohort.
The pipelined multicast driver (``multicast_pipeline``) must stay
byte-exact with lock-step, clear the 1.33x modelled overlap floor, and
keep the timeline model's worst per-stage error under 20%.
The remaining speedup floors are asserted by the benchmark suite
itself.

The fresh run must be a full-mode run: smoke-mode shapes sit below the
engine's amortization break-even and their throughputs are meaningless,
so a smoke fresh file fails the gate outright.

Usage::

    python scripts/check_bench_regression.py \
        --baseline bench_baseline.json --fresh BENCH_hot_paths.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: section -> list of higher-is-better keys within that section.
THROUGHPUT_KEYS: dict[str, tuple[str, ...]] = {
    "batch_encode": ("mb_per_s_after",),
    "progressive_decode": ("mb_per_s_after",),
    "server_round_throughput": ("mb_per_s_after",),
    # madd_gb_per_s is the kernel's multiply-add rate (m*n*k bytes/s)
    # at the host's best SIMD level, timed over many passes.
    "matmul_backends": (
        "auto_gb_per_s",
        "wide_gb_per_s",
        "madd_gb_per_s",
    ),
    "encode_block_cached_log": ("mb_per_s",),
    "observability_overhead": ("enabled_mb_per_s", "disabled_mb_per_s"),
    # Modelled (cost-model) figures — deterministic, so any drop is a
    # genuine placement or accounting change, not host noise.
    "cluster_scaleout": ("model_rounds_per_s_w1", "model_rounds_per_s_w4"),
    "loadtest_scale": ("rounds_per_s",),
    "multicast_pipeline": ("overlap_efficiency",),
}

#: Measured wall-clock floors for the multiprocess cluster substrate,
#: enforced only when the fresh run's ``wall_gate`` is true (full-mode
#: run on a host with >= 4 cores) — a one-core runner cannot witness
#: parallel speedup and must not fail on its absence.
WALL_SPEEDUP_FLOORS: dict[str, float] = {
    "wall_speedup_w2": 1.3,
    "wall_speedup_w4": 1.5,
}


def check_cluster_substrate(fresh: dict) -> list[str]:
    """Absolute checks on the parallel substrate (no baseline needed)."""
    failures: list[str] = []
    section = fresh.get("cluster_scaleout")
    if section is None:
        return ["fresh results are missing section 'cluster_scaleout'"]
    if section.get("byte_exact") is not True:
        failures.append(
            "cluster_scaleout.byte_exact is not True: the parallel "
            "substrate diverged from the serial reference"
        )
    for key in WALL_SPEEDUP_FLOORS:
        if key not in section:
            failures.append(f"fresh cluster_scaleout.{key} is missing")
    if not section.get("wall_gate"):
        print(
            "note: wall_gate is off "
            f"(cpu_count={section.get('cpu_count')}); recording wall "
            "speedups without enforcing floors"
        )
        return failures
    for key, floor in WALL_SPEEDUP_FLOORS.items():
        if key not in section:
            continue
        measured = float(section[key])
        status = "ok" if measured >= floor else "BELOW FLOOR"
        print(
            f"{'cluster_scaleout.' + key:<55} floor={floor:>10.3g} "
            f"fresh={measured:>10.3g}  {status}"
        )
        if measured < floor:
            failures.append(
                f"cluster_scaleout.{key} measured {measured:.2f}x, "
                f"below the {floor}x floor"
            )
    return failures


#: Self-healing ceilings (lower is better), enforced only when the
#: fresh run's ``failover_gate`` is true — full mode on a host with
#: >= 4 cores, mirroring ``wall_gate``: a loaded one- or two-core
#: runner measures scheduling noise, not supervision latency.  The
#: byte-exactness and exact-accounting checks apply everywhere.
FAILOVER_CEILINGS: dict[str, float] = {
    "detection_seconds": 1.0,
    "recovery_rounds": 50.0,
    "degraded_round_slowdown": 25.0,
}


def check_cluster_failover(fresh: dict) -> list[str]:
    """Absolute checks on the self-healing path (no baseline needed)."""
    failures: list[str] = []
    section = fresh.get("cluster_failover")
    if section is None:
        return ["fresh results are missing section 'cluster_failover'"]
    if section.get("byte_exact") is not True:
        failures.append(
            "cluster_failover.byte_exact is not True: the supervised "
            "recovery lost bytes"
        )
    if section.get("recoveries") != section.get("failures_detected"):
        failures.append(
            "cluster_failover accounting broken: "
            f"{section.get('failures_detected')} failures detected but "
            f"{section.get('recoveries')} recoveries"
        )
    for key in FAILOVER_CEILINGS:
        if key not in section:
            failures.append(f"fresh cluster_failover.{key} is missing")
    if not section.get("failover_gate"):
        print(
            "note: failover_gate is off "
            f"(cpu_count={section.get('cpu_count')}); recording failover "
            "latencies without enforcing ceilings"
        )
        return failures
    for key, ceiling in FAILOVER_CEILINGS.items():
        if key not in section:
            continue
        measured = float(section[key])
        status = "ok" if measured <= ceiling else "ABOVE CEILING"
        print(
            f"{'cluster_failover.' + key:<55} ceiling={ceiling:>9.3g} "
            f"fresh={measured:>10.3g}  {status}"
        )
        if measured > ceiling:
            failures.append(
                f"cluster_failover.{key} measured {measured:.3g}, "
                f"above the {ceiling:g} ceiling"
            )
    return failures


#: Load-harness acceptance (absolute, no baseline needed): the full-mode
#: run must have modelled at least the acceptance population, kept the
#: p99 admission delay bounded through the flash crowd, scaled up at
#: least once, and proven byte-exactness on the sampled cohort.
LOADTEST_PEAK_SESSIONS_FLOOR = 100_000
LOADTEST_DELAY_P99_CEILING = 32.0


def check_loadtest_scale(fresh: dict) -> list[str]:
    """Absolute checks on the load harness (no baseline needed)."""
    failures: list[str] = []
    section = fresh.get("loadtest_scale")
    if section is None:
        return ["fresh results are missing section 'loadtest_scale'"]
    if section.get("byte_exact") is not True:
        failures.append(
            "loadtest_scale.byte_exact is not True: the sampled cohort "
            "lost bytes under load (shed must pace sessions, never drop "
            "them)"
        )
    peak = section.get("peak_modelled_sessions")
    if peak is None:
        failures.append("fresh loadtest_scale.peak_modelled_sessions missing")
    elif float(peak) < LOADTEST_PEAK_SESSIONS_FLOOR:
        failures.append(
            f"loadtest_scale peaked at {float(peak):.0f} modelled "
            f"sessions, below the {LOADTEST_PEAK_SESSIONS_FLOOR} floor"
        )
    p99 = section.get("admission_delay_p99")
    if p99 is None:
        failures.append("fresh loadtest_scale.admission_delay_p99 missing")
    else:
        measured = float(p99)
        status = (
            "ok" if measured <= LOADTEST_DELAY_P99_CEILING
            else "ABOVE CEILING"
        )
        print(
            f"{'loadtest_scale.admission_delay_p99':<55} "
            f"ceiling={LOADTEST_DELAY_P99_CEILING:>9.3g} "
            f"fresh={measured:>10.3g}  {status}"
        )
        if measured > LOADTEST_DELAY_P99_CEILING:
            failures.append(
                f"loadtest_scale.admission_delay_p99 measured "
                f"{measured:.1f} rounds, above the "
                f"{LOADTEST_DELAY_P99_CEILING:g}-round ceiling"
            )
    if not section.get("scale_ups"):
        failures.append(
            "loadtest_scale.scale_ups is zero: the autoscaler never "
            "reacted to the flash crowd"
        )
    return failures


#: The wide backend's acceptance floor over the seed-era auto choice,
#: enforced only when the fresh run's compiled kernel actually loaded
#: (``matmul_backends.wide_kernel``) — the table fallback keeps things
#: correct, not fast.
WIDE_SPEEDUP_FLOOR = 5.0


def check_wide(fresh: dict) -> list[str]:
    """Absolute check on the wide backend's speedup floor."""
    failures: list[str] = []
    backends = fresh.get("matmul_backends")
    if backends is None:
        failures.append("fresh results are missing section 'matmul_backends'")
    else:
        speedup = backends.get("wide_speedup_vs_seed_auto")
        if speedup is None:
            failures.append(
                "fresh matmul_backends.wide_speedup_vs_seed_auto is missing"
            )
        elif backends.get("wide_kernel"):
            measured = float(speedup)
            status = "ok" if measured >= WIDE_SPEEDUP_FLOOR else "BELOW FLOOR"
            print(
                f"{'matmul_backends.wide_speedup_vs_seed_auto':<55} "
                f"floor={WIDE_SPEEDUP_FLOOR:>10.3g} "
                f"fresh={measured:>10.3g}  {status}"
            )
            if measured < WIDE_SPEEDUP_FLOOR:
                failures.append(
                    f"wide_speedup_vs_seed_auto measured {measured:.2f}x, "
                    f"below the {WIDE_SPEEDUP_FLOOR}x floor"
                )
        else:
            print(
                "note: wide kernel unavailable in fresh run; recording "
                "wide throughput without enforcing the speedup floor"
            )
    return failures


#: Multicast pipelining acceptance (absolute, no baseline needed).
#: Both figures are modelled time — deterministic and
#: machine-independent — so they are enforced on every fresh run.
MULTICAST_OVERLAP_FLOOR = 1.33
MULTICAST_STAGE_ERROR_CEILING = 0.20


def check_multicast_pipeline(fresh: dict) -> list[str]:
    """Absolute checks on the pipelined multicast driver."""
    failures: list[str] = []
    section = fresh.get("multicast_pipeline")
    if section is None:
        return ["fresh results are missing section 'multicast_pipeline'"]
    if section.get("byte_exact") is not True:
        failures.append(
            "multicast_pipeline.byte_exact is not True: the pipelined "
            "run diverged from lock-step (pipelining may change when "
            "work happens, never what bytes move)"
        )
    efficiency = section.get("overlap_efficiency")
    if efficiency is None:
        failures.append(
            "fresh multicast_pipeline.overlap_efficiency is missing"
        )
    else:
        measured = float(efficiency)
        status = (
            "ok" if measured >= MULTICAST_OVERLAP_FLOOR else "BELOW FLOOR"
        )
        print(
            f"{'multicast_pipeline.overlap_efficiency':<55} "
            f"floor={MULTICAST_OVERLAP_FLOOR:>10.3g} "
            f"fresh={measured:>10.3g}  {status}"
        )
        if measured < MULTICAST_OVERLAP_FLOOR:
            failures.append(
                f"multicast_pipeline.overlap_efficiency measured "
                f"{measured:.2f}x, below the "
                f"{MULTICAST_OVERLAP_FLOOR}x floor"
            )
    stage_error = section.get("max_stage_error")
    if stage_error is None:
        failures.append(
            "fresh multicast_pipeline.max_stage_error is missing"
        )
    else:
        measured = float(stage_error)
        status = (
            "ok"
            if measured <= MULTICAST_STAGE_ERROR_CEILING
            else "ABOVE CEILING"
        )
        print(
            f"{'multicast_pipeline.max_stage_error':<55} "
            f"ceiling={MULTICAST_STAGE_ERROR_CEILING:>9.3g} "
            f"fresh={measured:>10.3g}  {status}"
        )
        if measured > MULTICAST_STAGE_ERROR_CEILING:
            failures.append(
                f"multicast_pipeline.max_stage_error measured "
                f"{measured:.1%}, above the "
                f"{MULTICAST_STAGE_ERROR_CEILING:.0%} ceiling"
            )
    return failures


def compare(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures: list[str] = []
    if fresh.get("smoke"):
        failures.append(
            "fresh benchmark file is a smoke-mode run; the regression "
            "gate needs full-mode throughputs (unset REPRO_HOT_PATH_SMOKE)"
        )
        return failures
    if baseline.get("smoke"):
        print("note: baseline is a smoke-mode run; skipping comparison")
        return (
            check_cluster_substrate(fresh)
            + check_wide(fresh)
            + check_cluster_failover(fresh)
            + check_loadtest_scale(fresh)
            + check_multicast_pipeline(fresh)
        )
    for section, keys in THROUGHPUT_KEYS.items():
        fresh_section = fresh.get(section)
        if fresh_section is None:
            failures.append(f"fresh results are missing section {section!r}")
            continue
        baseline_section = baseline.get(section)
        if baseline_section is None:
            print(f"note: baseline has no section {section!r} yet; skipping")
            continue
        for key in keys:
            if key not in fresh_section:
                failures.append(f"fresh {section}.{key} is missing")
                continue
            if key not in baseline_section:
                print(f"note: baseline has no {section}.{key} yet; skipping")
                continue
            base = float(baseline_section[key])
            new = float(fresh_section[key])
            if base <= 0:
                print(f"note: baseline {section}.{key} <= 0; skipping")
                continue
            ratio = new / base
            status = "ok"
            if ratio < 1.0 - tolerance:
                status = "REGRESSION"
                failures.append(
                    f"{section}.{key} regressed {1 - ratio:.1%} "
                    f"(baseline {base:.3g}, fresh {new:.3g}, "
                    f"tolerance {tolerance:.0%})"
                )
            print(
                f"{section + '.' + key:<55} baseline={base:>10.3g} "
                f"fresh={new:>10.3g} ratio={ratio:>6.2f}  {status}"
            )
    failures.extend(check_cluster_substrate(fresh))
    failures.extend(check_wide(fresh))
    failures.extend(check_cluster_failover(fresh))
    failures.extend(check_loadtest_scale(fresh))
    failures.extend(check_multicast_pipeline(fresh))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", required=True, help="committed BENCH_hot_paths.json"
    )
    parser.add_argument(
        "--fresh", required=True, help="freshly generated BENCH_hot_paths.json"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional throughput drop (default 0.25)",
    )
    args = parser.parse_args(argv)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.fresh) as handle:
        fresh = json.load(handle)
    failures = compare(baseline, fresh, args.tolerance)
    if failures:
        print()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
