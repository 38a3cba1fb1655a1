"""Guard: no component mirrors its counters into shared metric state.

A component's stats object is its one ledger and ``series()`` exports
it.  There is no process-wide metrics registry: the tracer owns its
``span_ns`` histograms, and the load harness owns the admission-delay
histogram it hands its autoscaler.  This test enforces that textually,
so a future component cannot quietly bring back a shared registry
(where, on a parallel cluster, its series would land in a worker
process nobody reads) or scatter histograms outside the layers that
own them.
"""

import re
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

#: The registry API and its helpers, forbidden everywhere in ``repro``:
#: the default-registry getter and setter, the registry class and the
#: ``obs_*`` series helpers.  Outside ``obs/`` any series resolve
#: (``x.gauge("name")``) is forbidden too.  (The names are spelled as
#: patterns, so a plain search of the tree for them finds nothing.)
REGISTRY_API = re.compile(
    r"\b(?:[gs]et_registry|Metrics(?:Registry))\b"
    r"|\bobs_(?:counter|gauge|histogram)\b"
)
SERIES_RESOLVE = re.compile(r"\.(?:counter|gauge|histogram)\s*\(")
#: Building a histogram; only the owners below may.
HISTOGRAM_BUILD = re.compile(r"\bHistogram\s*\(")

#: Packages (relative to ``repro``) that may build histograms: the
#: tracer's span timings and the load harness's admission delays.
HISTOGRAM_OWNERS = (Path("obs"), Path("workloads"))


def offenders():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT)
        in_obs = relative.parts[0] == "obs"
        owner = any(relative.parts[0] == p.name for p in HISTOGRAM_OWNERS)
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if (
                REGISTRY_API.search(line)
                or (not in_obs and SERIES_RESOLVE.search(line))
                or (not owner and HISTOGRAM_BUILD.search(line))
            ):
                yield f"{relative}:{lineno}: {line.strip()}"


def test_no_registry_access_outside_obs_and_the_load_loop():
    found = list(offenders())
    assert not found, (
        "count in the component's stats object and export it with "
        "series(); shared metric state found:\n" + "\n".join(found)
    )


def test_patterns_catch_the_removed_api():
    for line in (
        "registry = " + "get" + "_registry()",
        "previous = " + "set" + "_registry(fresh)",
        "Metrics" + "Registry()",
        "obs_counter('x').inc()",
    ):
        assert REGISTRY_API.search(line), line
    assert SERIES_RESOLVE.search('registry.gauge("util").set(1)')
    assert HISTOGRAM_BUILD.search("delay = Histogram()")
    assert not HISTOGRAM_BUILD.search("delay: Histogram | None")


def test_allowed_modules_still_exist():
    # If an owner moves, the allow-list must move with it.
    for owner in HISTOGRAM_OWNERS:
        assert (SRC_ROOT / owner).is_dir(), owner
