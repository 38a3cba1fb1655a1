"""The metrics registry: the series no stats object owns.

A component's stats object is its ledger: ``ServerStats``,
``RelayStats``, ``SessionStats`` (with its nested ``WireStats``),
``ClusterStats``, ``SupervisorStats`` and ``AutoscalerStats`` are the
only place their counters live, and an endpoint's ``stats_snapshot()``
(built from :meth:`~repro.obs.stats.CumulativeStats.series`) is their
export — it crosses processes, since a cluster worker ships its
server's snapshot over the pipe.  Nothing mirrors those fields here.
:class:`MetricsRegistry` holds the series that no object owns (span
durations, wire frames and bytes packed and unpacked, the decoder and
recoder counters, the kernels' encode counters, the coalesce batch-size
and failure-detection histograms, the load harness's control inputs):
a named, labeled set of

* **counters** — monotonically increasing totals (frames packed,
  innovative blocks, kernel encode calls);
* **gauges** — last-observed values (occupancy efficiency, load-test
  utilization);
* **histograms** — distributions over fixed log-scale (power-of-two)
  buckets (span durations, coalesce batch sizes), stored sparsely so an
  unused histogram costs nothing.

Labels are plain keyword arguments (``registry.counter("blocks_served",
component="server", scheme="table_5")``); each distinct label set is its
own time series, exactly as in Prometheus.  Metric handles are memoized,
so call sites may either cache the handle (hot paths) or re-resolve by
name every time (cold paths) — both hit the same object.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts.
:func:`merge_snapshots` folds snapshots together **associatively**:
counters and histogram buckets add, gauges take the right-hand value
(right-biased union).  Associativity is what makes per-thread or
per-process registries composable in any grouping order — a property the
test suite checks with Hypothesis.

Thread safety: metric creation takes the registry lock; each metric
mutates under its own lock, so concurrent increments never lose updates.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_index",
    "bucket_bounds",
    "get_registry",
    "merge_snapshots",
    "obs_counter",
    "obs_gauge",
    "obs_histogram",
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


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self._value += amount


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

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


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

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

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
    """A named, labeled collection of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelItems], Counter] = {}
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

    def counter(self, name: str, **labels: object) -> Counter:
        return self._resolve(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._resolve(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._resolve(self._histograms, Histogram, name, labels)

    # -- snapshotting -------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able view of every series (see :func:`merge_snapshots`)."""
        counters = {
            _series_key(name, labels): metric.value
            for (name, labels), metric in sorted(self._counters.items())
        }
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
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Zero every series without invalidating cached handles."""
        with self._lock:
            for counter in self._counters.values():
                with counter._lock:
                    counter._value = 0.0
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

    def clear(self) -> None:
        """Drop every series (cached handles become orphans)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


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


#: The process-wide default registry every instrumented layer writes to.
_default_registry = MetricsRegistry()
_registry_lock = threading.Lock()

#: (registry id, metric name) -> handle, for the module-level helpers
#: below.  Caching by name only keeps the hot-path lookup to one dict
#: probe; call sites that need labels resolve through the registry
#: directly instead.  ``registry.reset()`` keeps cached handles live.
_handle_cache: dict[tuple[int, str, str], object] = {}


def _cached_handle(kind: str, name: str):
    registry = _default_registry
    key = (id(registry), kind, name)
    handle = _handle_cache.get(key)
    if handle is None:
        handle = getattr(registry, kind)(name)
        _handle_cache[key] = handle
    return handle


def obs_counter(name: str) -> Counter:
    """The default registry's unlabeled counter ``name`` (handle cached)."""
    return _cached_handle("counter", name)


def obs_gauge(name: str) -> Gauge:
    """The default registry's unlabeled gauge ``name`` (handle cached)."""
    return _cached_handle("gauge", name)


def obs_histogram(name: str) -> Histogram:
    """The default registry's unlabeled histogram ``name`` (handle cached)."""
    return _cached_handle("histogram", name)


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
