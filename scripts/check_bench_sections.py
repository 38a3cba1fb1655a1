#!/usr/bin/env python
"""Fail CI when the benchmark trajectory is missing a required section.

``benchmarks/test_hot_paths.py`` rewrites ``BENCH_hot_paths.json`` from
the sections recorded *in that run*, so a skipped or silently-collected
benchmark would shrink the committed trajectory without failing
anything.  This check pins the required section set, and the keys a
section must carry (``REQUIRED_KEYS``); both the CI
``bench-smoke`` job and the nightly soak call it so a vanished section
fails loudly instead of eroding the history.

Usage::

    python scripts/check_bench_sections.py [BENCH_hot_paths.json]
"""

from __future__ import annotations

import json
import sys

#: Every section a full hot-path run must record.  Additions here must
#: ride with the benchmark that records them (and usually a matching
#: gate in ``check_bench_regression.py``).
REQUIRED_SECTIONS = frozenset(
    {
        "progressive_decode",
        "decoder_intake",
        "batch_encode",
        "matmul_backends",
        "encode_block_cached_log",
        "server_round_throughput",
        "wire_integrity_overhead",
        "observability_overhead",
        "cluster_scaleout",
        "cluster_failover",
        "loadtest_scale",
        "multicast_pipeline",
    }
)


#: Keys a section must carry, where a gate or the paper's units need
#: them: the multiply-add rate in m*n*k bytes/s and the GF-multiply
#: utilization, overall and per SIMD level.
REQUIRED_KEYS: dict[str, frozenset[str]] = {
    "matmul_backends": frozenset(
        {"madd_gb_per_s", "gf_mul_utilization", "simd_level", "levels"}
    ),
}


def check_sections(results: dict) -> list[str]:
    """Return the sorted list of missing sections and ``section.key``s."""
    missing = set(REQUIRED_SECTIONS - results.keys())
    for section, keys in REQUIRED_KEYS.items():
        if section in results:
            missing.update(f"{section}.{key}" for key in keys - results[section].keys())
    return sorted(missing)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = args[0] if args else "BENCH_hot_paths.json"
    with open(path) as handle:
        results = json.load(handle)
    missing = check_sections(results)
    if missing:
        print(f"{path} missing sections or keys: {missing}", file=sys.stderr)
        return 1
    print(
        f"all {len(REQUIRED_SECTIONS)} required benchmark sections "
        f"present in {path}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
