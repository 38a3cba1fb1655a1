"""Guard: only the observability layer and the load-test loop touch the
process metrics registry.

A component's stats object is its one ledger and ``series()`` exports
it; the registry keeps only what no object holds and something reads
back — the tracer's ``span_ns`` histograms and the autoscaler's two
control inputs, which the load harness writes and the autoscaler reads.
This test enforces that textually, so a future component cannot quietly
mirror its counters into the registry again (where, on a parallel
cluster, they would land in a worker process nobody reads).
"""

import re
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

#: Where registry access is allowed (paths relative to ``repro``).
ALLOWED_PACKAGE = Path("obs")
ALLOWED_MODULES = {Path("workloads/autoscaler.py"), Path("workloads/harness.py")}

#: Fetching the default registry, or resolving a series on any registry
#: (``registry.gauge("name")``, the removed ``obs_counter`` helpers).
FORBIDDEN = re.compile(
    r"\bget_registry\s*\("
    r"|\.(?:counter|gauge|histogram)\s*\("
    r"|\bobs_(?:counter|gauge|histogram)\b"
)


def scanned_modules():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT)
        if relative.parts[0] == ALLOWED_PACKAGE.name or relative in ALLOWED_MODULES:
            continue
        yield path


def test_no_registry_access_outside_obs_and_the_load_loop():
    offenders = []
    for path in scanned_modules():
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if FORBIDDEN.search(line):
                offenders.append(
                    f"{path.relative_to(SRC_ROOT)}:{lineno}: {line.strip()}"
                )
    assert not offenders, (
        "count in the component's stats object and export it with "
        "series(); registry access found:\n" + "\n".join(offenders)
    )


def test_allowed_modules_still_exist():
    # If the load loop moves, the allow-list must move with it.
    assert (SRC_ROOT / ALLOWED_PACKAGE).is_dir()
    for allowed in ALLOWED_MODULES:
        assert (SRC_ROOT / allowed).is_file(), allowed
