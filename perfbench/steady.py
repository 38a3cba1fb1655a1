"""Steadiness check: run each workload N times and report the spread.

    python3 perfbench/steady.py --runs 10 --first-seed 1001

Runs ``run.py`` once per (repetition, workload), with the workloads
interleaved, a fresh seed for every run and the run length
``run_seconds`` from ``BENCHMARK.json``, then prints for each
end-to-end metric its median, quartiles and IQR/median as reported
(host-normalised) and, for the timed metrics, the IQR/median of the raw
values, plus the correlation of the host probe with raw goodput.  Quartiles are
``statistics.quantiles(values, n=4)``.  The per-run results are saved as
JSON under ``.bench_build/perfbench/`` for the README's tables.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bulk_server", "relay_lossy", "cluster_2w")
TIMED = ("goodput_mb_s", "fetch_p50_ms", "cpu_ms_per_mb", "setup_s")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    detail = next(line for line in lines if line.startswith("detail "))
    return {"result": json.loads(lines[-1]), "detail": json.loads(detail[len("detail "):])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and IQR over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def summarise(workload: str, runs: list[dict]) -> dict:
    results = [run["result"] for run in runs]
    details = [run["detail"] for run in runs]
    failed_share = {r["failed"] / r["attempted"] for r in results}
    print(
        f"\n{workload}: {len(runs)} runs, correct {all(r['correct'] for r in results)},"
        f" failed/attempted {sorted(failed_share)}"
    )
    print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}"
          f" {'raw':>8s}")
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median, q1, q3, iqr = spread(values)
        row = f"  {name:28s} {median:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.4f}"
        entry = {"median": median, "q1": q1, "q3": q3, "iqr_over_median": iqr}
        if name in TIMED:
            entry["raw_iqr"] = spread([d["raw"][name] for d in details])[3]
            row += f" {entry['raw_iqr']:8.4f}"
        print(row)
        summary[name] = entry
    probes = [d["probe_median_s"] for d in details]
    goodput = [d["raw"]["goodput_mb_s"] for d in details]
    correlation = statistics.correlation(probes, goodput) if len(set(probes)) > 1 else 0.0
    print(f"  probe median {statistics.median(probes) * 1e6:.1f} us,"
          f" correlation with raw goodput {correlation:.3f}")
    summary["probe_goodput_correlation"] = correlation
    summary["probe_median_s_median"] = statistics.median(probes)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    seed = args.first_seed
    for repetition in range(args.runs):
        for workload in WORKLOADS:
            runs[workload].append(run_once(workload, seed, seconds))
            seed += 1
        print(f"repetition {repetition + 1}/{args.runs} done", file=sys.stderr)
    summaries = {name: summarise(name, runs[name]) for name in WORKLOADS}
    build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    out = build / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps({"args": vars(args), "seconds": seconds, "runs": runs, "summary": summaries}, indent=1))
    print(f"\nsaved {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
