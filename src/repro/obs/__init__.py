"""Unified observability: span tracing, histograms, exporters.

The paper's results are *measurements* — per-kernel throughput, TB-0..5
variant breakdowns, segment-pipeline timing — so the reproduction keeps
first-class instrumentation next to the code it measures:

* :func:`trace` (``repro.obs.trace``) — nestable, thread-safe span
  timing on ``perf_counter_ns``; disabled by default so hot paths pay a
  branch, enabled with :func:`enable_tracing` / ``with tracing():``.
  The :class:`Tracer` keeps one duration histogram per span name and
  exports them as ``span_ns{span=...}``.
* :class:`Histogram` (``repro.obs.registry``) — log-scale-bucket
  distributions, owned by whatever fills them (the tracer, the load
  harness), and :func:`merge_snapshots`, which folds snapshots.  Every
  counter lives in its component's stats object (``repro.obs.stats``)
  and is exported by that object's ``series()``.
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
from repro.obs.registry import Histogram, merge_snapshots, quantile_from_buckets
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
    "Histogram",
    "SpanRecord",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "load_snapshot",
    "merge_snapshots",
    "quantile_from_buckets",
    "render_breakdown_table",
    "render_metrics_summary",
    "render_prometheus",
    "round_breakdown",
    "save_snapshot",
    "snapshot_document",
    "trace",
    "tracing",
    "tracing_enabled",
]
