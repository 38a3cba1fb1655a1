"""Unified observability: metrics registry, span tracing, exporters.

The paper's results are *measurements* — per-kernel throughput, TB-0..5
variant breakdowns, segment-pipeline timing — so the reproduction keeps
first-class instrumentation next to the code it measures:

* :class:`MetricsRegistry` (``repro.obs.registry``) — labeled gauges
  and log-scale-bucket histograms: the process-wide span timings and
  the autoscaler's control inputs.  Every counter lives in its
  component's stats object (``repro.obs.stats``) and is exported by
  that object's ``series()``.
* :func:`trace` (``repro.obs.trace``) — nestable, thread-safe span
  timing on ``perf_counter_ns``; disabled by default so hot paths pay a
  branch, enabled with :func:`enable_tracing` / ``with tracing():``.
* exporters (``repro.obs.export``) — JSON snapshots, Prometheus text,
  and the flame-style per-round breakdown table behind ``repro stats``.
"""

from repro.obs.export import (
    load_snapshot,
    render_breakdown_table,
    render_metrics_summary,
    render_prometheus,
    round_breakdown,
    save_snapshot,
    snapshot_document,
)
from repro.obs.registry import (
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    quantile_from_buckets,
    set_registry,
)
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    trace,
    tracing,
    tracing_enabled,
)

__all__ = [
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_registry",
    "get_tracer",
    "load_snapshot",
    "merge_snapshots",
    "quantile_from_buckets",
    "render_breakdown_table",
    "render_metrics_summary",
    "render_prometheus",
    "round_breakdown",
    "save_snapshot",
    "set_registry",
    "snapshot_document",
    "trace",
    "tracing",
    "tracing_enabled",
]
