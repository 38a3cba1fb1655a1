"""The metrics registry: span timings and the autoscaler's inputs.

A component's stats object is its ledger: ``ServerStats``,
``RelayStats``, ``SessionStats`` (with its nested ``WireStats``),
``ClusterStats``, ``SupervisorStats`` and ``AutoscalerStats`` are the
only place their counters live, and an endpoint's ``stats_snapshot()``
(built from :meth:`~repro.obs.stats.CumulativeStats.series`) is their
export — it crosses processes, since a cluster worker ships its
server's snapshot over the pipe.  Nothing mirrors those fields here.
:class:`MetricsRegistry` holds only what nothing else keeps and
something reads back:

* the ``span_ns{span=...}`` histograms, one per span name, which
  :mod:`repro.obs.trace` fills while tracing is enabled;
* the gauge ``loadtest_utilization`` and
* the histogram ``loadtest_admission_delay_rounds`` — the load
  harness writes both each round and the autoscaler reads them as its
  control inputs.

Histograms are distributions over fixed log-scale (power-of-two)
buckets, stored sparsely so an unused histogram costs nothing; gauges
are last-observed values.  Labels are plain keyword arguments
(``registry.histogram("span_ns", span="wire_pack")``); each distinct
label set is its own series, exactly as in Prometheus.  Handles are
memoized, so a call site may cache one or re-resolve it by name — both
hit the same object.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts
with ``counters``, ``gauges`` and ``histograms`` sections; the registry
leaves ``counters`` empty, and the stats objects' ``series()`` exports
fill it when :func:`merge_snapshots` folds them in.  The merge is
**associative**: counters and histogram buckets add, gauges take the
right-hand value (right-biased union).  Associativity is what makes
per-thread or per-process snapshots composable in any grouping order —
a property the test suite checks with Hypothesis.

Thread safety: series creation takes the registry lock; each series
mutates under its own lock, so concurrent observations never lose
updates.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_index",
    "bucket_bounds",
    "get_registry",
    "merge_snapshots",
    "quantile_from_buckets",
    "set_registry",
]

#: Sorted ``(key, value)`` label pairs — the canonical hashable form.
LabelItems = tuple[tuple[str, str], ...]


def _label_items(labels: dict[str, object]) -> LabelItems:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _series_key(name: str, labels: LabelItems) -> str:
    """Render the Prometheus-style series key ``name{a="1",b="x"}``."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


def bucket_index(value: float) -> int:
    """Fixed log-scale bucket of ``value``: ``floor(log2(value))``.

    Bucket ``i`` covers ``[2**i, 2**(i+1))``; values ``<= 0`` land in the
    dedicated underflow bucket ``-1075`` (below any representable float's
    exponent, so it can never collide with a real bucket).
    """
    if not value > 0:  # catches <= 0 and NaN
        return UNDERFLOW_BUCKET
    return math.frexp(value)[1] - 1


#: Bucket index reserved for observations ``<= 0`` (or NaN).
UNDERFLOW_BUCKET = -1075


def bucket_bounds(index: int) -> tuple[float, float]:
    """The ``[low, high)`` value range of one log-scale bucket."""
    if index == UNDERFLOW_BUCKET:
        return (float("-inf"), 0.0)
    return (2.0**index, 2.0 ** (index + 1))


class Gauge:
    """A last-observed value (may go up or down)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)


class Histogram:
    """A distribution over sparse power-of-two buckets.

    Tracks count, sum, min and max alongside the bucket counts, so mean
    and spread survive snapshotting without storing raw observations.
    """

    __slots__ = (
        "name",
        "labels",
        "_lock",
        "_buckets",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def observe(self, value: float) -> None:
        index = bucket_index(value)
        with self._lock:
            self._buckets[index] = self._buckets.get(index, 0) + 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def buckets(self) -> dict[int, int]:
        """A copy of the sparse ``bucket_index -> count`` map."""
        with self._lock:
            return dict(self._buckets)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the log-scale buckets.

        See :func:`quantile_from_buckets` for the estimator and its
        error bound (at most one power-of-two bucket width).
        """
        with self._lock:
            return quantile_from_buckets(self._buckets, self._count, q)


def quantile_from_buckets(
    buckets: dict, count: int | None = None, q: float = 0.5
) -> float:
    """Estimate a quantile from a sparse log-bucket count map.

    Walks the buckets in value order to the one holding the
    ``ceil(q * count)``-th observation and interpolates linearly inside
    its ``[2**i, 2**(i+1))`` range — so the estimate is off by at most
    one power-of-two bucket width, which is exactly the resolution the
    histogram stores.  Works on a live histogram's :meth:`Histogram
    .buckets` map *or* on snapshot/merge-produced maps with string
    keys — including the **delta** of two cumulative snapshots, which
    is how a load harness gets a windowed p99 without storing raw
    observations.

    Args:
        buckets: ``bucket_index -> count`` (int or str indices).
        count: total observations; summed from the buckets if ``None``.
        q: the quantile in ``[0, 1]``.

    Returns:
        The estimated value; ``0.0`` for an empty distribution or a
        rank that falls in the underflow bucket (observations ``<= 0``).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    normalized = {int(index): int(n) for index, n in buckets.items() if n}
    if count is None:
        count = sum(normalized.values())
    if count <= 0 or not normalized:
        return 0.0
    rank = max(1, math.ceil(q * count))
    seen = 0
    for index in sorted(normalized):
        in_bucket = normalized[index]
        if seen + in_bucket >= rank:
            if index == UNDERFLOW_BUCKET:
                return 0.0
            low, high = bucket_bounds(index)
            fraction = (rank - seen) / in_bucket
            return low + (high - low) * fraction
        seen += in_bucket
    # count overstated the buckets (racy snapshot); clamp to the top.
    return bucket_bounds(max(normalized))[1]


class MetricsRegistry:
    """A named, labeled collection of gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._gauges: dict[tuple[str, LabelItems], Gauge] = {}
        self._histograms: dict[tuple[str, LabelItems], Histogram] = {}

    def _resolve(self, table: dict, factory, name: str, labels: dict):
        key = (name, _label_items(labels))
        metric = table.get(key)
        if metric is None:
            with self._lock:
                metric = table.get(key)
                if metric is None:
                    metric = factory(name, key[1])
                    table[key] = metric
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._resolve(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._resolve(self._histograms, Histogram, name, labels)

    # -- snapshotting -------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able view of every series (see :func:`merge_snapshots`)."""
        gauges = {
            _series_key(name, labels): metric.value
            for (name, labels), metric in sorted(self._gauges.items())
        }
        histograms = {}
        for (name, labels), metric in sorted(self._histograms.items()):
            with metric._lock:
                histograms[_series_key(name, labels)] = {
                    "count": metric._count,
                    "sum": metric._sum,
                    "min": None if metric._count == 0 else metric._min,
                    "max": None if metric._count == 0 else metric._max,
                    "buckets": {
                        str(index): count
                        for index, count in sorted(metric._buckets.items())
                    },
                }
        return {
            "counters": {},
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Zero every series without invalidating cached handles."""
        with self._lock:
            for gauge in self._gauges.values():
                with gauge._lock:
                    gauge._value = 0.0
            for histogram in self._histograms.values():
                with histogram._lock:
                    histogram._buckets.clear()
                    histogram._count = 0
                    histogram._sum = 0.0
                    histogram._min = math.inf
                    histogram._max = -math.inf


def _merge_histogram(left: dict, right: dict) -> dict:
    buckets = dict(left.get("buckets", {}))
    for index, count in right.get("buckets", {}).items():
        buckets[index] = buckets.get(index, 0) + count
    mins = [m for m in (left.get("min"), right.get("min")) if m is not None]
    maxes = [m for m in (left.get("max"), right.get("max")) if m is not None]
    return {
        "count": left.get("count", 0) + right.get("count", 0),
        "sum": left.get("sum", 0.0) + right.get("sum", 0.0),
        "min": min(mins) if mins else None,
        "max": max(maxes) if maxes else None,
        "buckets": {key: buckets[key] for key in sorted(buckets)},
    }


def merge_snapshots(*snapshots: dict) -> dict:
    """Fold registry snapshots together; associative by construction.

    Counters and histogram contents add; gauges take the rightmost
    occurrence (right-biased union), which is the only merge rule for
    last-observed values that stays associative.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snapshot in snapshots:
        for key, value in snapshot.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value
        for key, value in snapshot.get("gauges", {}).items():
            gauges[key] = value
        for key, payload in snapshot.get("histograms", {}).items():
            if key in histograms:
                histograms[key] = _merge_histogram(histograms[key], payload)
            else:
                histograms[key] = _merge_histogram({}, payload)
    return {
        "counters": {key: counters[key] for key in sorted(counters)},
        "gauges": {key: gauges[key] for key in sorted(gauges)},
        "histograms": {key: histograms[key] for key in sorted(histograms)},
    }


#: The process-wide default registry the tracer and load harness write to.
_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The current default registry (swap with :func:`set_registry`)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the default; returns the previous one."""
    global _default_registry
    with _registry_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
