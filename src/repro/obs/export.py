"""Exporters: JSON snapshots, Prometheus text, per-round breakdowns.

Three ways out of the observability layer:

* :func:`save_snapshot` / :func:`load_snapshot` — one JSON document
  holding the tracer's span histograms, folded with any components'
  ``stats_snapshot()`` or ``stats.series()`` exports, plus the retained
  span records; the soak workflow attaches it as a CI artifact and
  ``repro stats`` renders it back.
* :func:`render_prometheus` — a snapshot in Prometheus
  exposition format (counters/gauges as-is, histograms as ``_count`` /
  ``_sum`` plus cumulative ``_bucket{le=...}`` series over the
  power-of-two bucket bounds).
* :func:`round_breakdown` / :func:`render_breakdown_table` — the
  flame-style per-round account mirroring the paper's Table 2
  encode/decode split: span durations are reduced to *self time*
  (a parent is never double-charged for its children), grouped into the
  pipeline stages (encode / recode / decode / wire / scheduler), and
  averaged over serving rounds.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from repro.obs.registry import bucket_bounds, merge_snapshots
from repro.obs.trace import SpanRecord, Tracer, get_tracer

__all__ = [
    "DEFAULT_CATEGORIES",
    "StageBreakdown",
    "load_snapshot",
    "render_breakdown_table",
    "render_metrics_summary",
    "render_prometheus",
    "round_breakdown",
    "save_snapshot",
    "self_times",
    "snapshot_document",
]

#: Span-name -> pipeline-stage mapping for the Table-2-style breakdown.
DEFAULT_CATEGORIES: dict[str, tuple[str, ...]] = {
    "encode": ("gpu_encode",),
    "recode": ("recode_intake", "recode_emit"),
    "decode": ("decode_intake", "two_stage_decode", "quarantine_rebuild"),
    "wire": ("wire_pack", "wire_unpack"),
    "scheduler": ("scheduler_plan",),
}

#: Root span name that delimits one serving round.
ROUND_SPAN = "serve_round"


def _category_of(name: str, categories: dict[str, tuple[str, ...]]) -> str:
    for category, names in categories.items():
        if name in names:
            return category
    return "other"


def self_times(records: list[SpanRecord]) -> list[tuple[SpanRecord, int]]:
    """Pair each span with its *self* time (duration minus children).

    Span records arrive in finish order and children always finish
    before their parent on the same thread, so one pass per thread with
    a per-depth accumulator recovers exclusive times without re-sorting
    intervals.
    """
    out: list[tuple[SpanRecord, int]] = []
    accumulators: dict[tuple[int, int], dict[int, int]] = {}
    for record in records:
        acc = accumulators.setdefault((record.thread_id, record.root), {})
        child_sum = acc.pop(record.depth + 1, 0)
        self_ns = max(0, record.duration_ns - child_sum)
        acc[record.depth] = acc.get(record.depth, 0) + record.duration_ns
        out.append((record, self_ns))
    return out


@dataclass(frozen=True)
class StageBreakdown:
    """One pipeline stage's share of the recorded session."""

    stage: str
    spans: int
    total_ns: int
    rounds: int

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def per_round_ms(self) -> float:
        return self.total_ms / self.rounds if self.rounds else 0.0


def round_breakdown(
    records: list[SpanRecord] | None = None,
    *,
    categories: dict[str, tuple[str, ...]] | None = None,
) -> list[StageBreakdown]:
    """Aggregate span self-times into per-stage, per-round totals.

    ``records`` defaults to the process tracer's retained spans.  The
    round count is the number of distinct ``serve_round`` root spans
    (falling back to the number of distinct roots when no serving round
    was traced, so ad-hoc recordings still normalize sensibly).
    """
    if records is None:
        records = get_tracer().records()
    categories = categories if categories is not None else DEFAULT_CATEGORIES
    rounds = len({r.root for r in records if r.root_name == ROUND_SPAN})
    if rounds == 0:
        rounds = len({record.root for record in records})
    totals: dict[str, int] = {}
    counts: dict[str, int] = {}
    for record, self_ns in self_times(records):
        category = _category_of(record.name, categories)
        totals[category] = totals.get(category, 0) + self_ns
        counts[category] = counts.get(category, 0) + 1
    order = list(categories) + ["other"]
    return [
        StageBreakdown(
            stage=stage,
            spans=counts[stage],
            total_ns=totals[stage],
            rounds=rounds,
        )
        for stage in order
        if stage in totals
    ]


def render_breakdown_table(
    breakdown: list[StageBreakdown], *, title: str = "per-round breakdown"
) -> str:
    """ASCII table of the stage breakdown (the ``repro stats`` payload)."""
    if not breakdown:
        return f"{title}: no spans recorded (is tracing enabled?)"
    grand_total = sum(stage.total_ns for stage in breakdown) or 1
    rounds = breakdown[0].rounds
    lines = [
        f"{title} ({rounds} round{'s' if rounds != 1 else ''})",
        f"{'stage':<12} {'spans':>7} {'total ms':>10} "
        f"{'ms/round':>10} {'share':>7}",
    ]
    for stage in breakdown:
        share = stage.total_ns / grand_total
        lines.append(
            f"{stage.stage:<12} {stage.spans:>7d} {stage.total_ms:>10.3f} "
            f"{stage.per_round_ms:>10.4f} {share:>6.1%}"
        )
    total_ms = grand_total / 1e6
    per_round = total_ms / rounds if rounds else 0.0
    lines.append(
        f"{'total':<12} {sum(s.spans for s in breakdown):>7d} "
        f"{total_ms:>10.3f} {per_round:>10.4f} {1:>6.0%}"
    )
    return "\n".join(lines)


def render_metrics_summary(snapshot: dict | None = None) -> str:
    """Human-readable snapshot summary (counters, gauges, histograms);
    defaults to the process tracer's span histograms."""
    if snapshot is None:
        snapshot = get_tracer().snapshot()
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        lines.append("counters:")
        for key, value in counters.items():
            rendered = f"{value:.6g}" if value != int(value) else f"{int(value)}"
            lines.append(f"  {key:<58} {rendered}")
    if gauges:
        lines.append("gauges:")
        for key, value in gauges.items():
            lines.append(f"  {key:<58} {value:.6g}")
    if histograms:
        lines.append("histograms:")
        for key, payload in histograms.items():
            count = payload.get("count", 0)
            mean = payload.get("sum", 0.0) / count if count else 0.0
            lines.append(
                f"  {key:<44} count={count} mean={mean:.6g} "
                f"min={payload.get('min')} max={payload.get('max')}"
            )
    return "\n".join(lines) if lines else "no metrics recorded"


def _split_series(key: str) -> tuple[str, str]:
    """Split ``name{labels}`` into ``(name, "{labels}" or "")``."""
    brace = key.find("{")
    if brace < 0:
        return key, ""
    return key[:brace], key[brace:]


def render_prometheus(snapshot: dict | None = None) -> str:
    """The snapshot in Prometheus text exposition format; defaults to
    the process tracer's span histograms."""
    if snapshot is None:
        snapshot = get_tracer().snapshot()
    lines: list[str] = []
    seen_types: set[str] = set()

    def emit_type(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in snapshot.get("counters", {}).items():
        name, labels = _split_series(key)
        emit_type(name, "counter")
        lines.append(f"{name}{labels} {value:g}")
    for key, value in snapshot.get("gauges", {}).items():
        name, labels = _split_series(key)
        emit_type(name, "gauge")
        lines.append(f"{name}{labels} {value:g}")
    for key, payload in snapshot.get("histograms", {}).items():
        name, labels = _split_series(key)
        emit_type(name, "histogram")
        inner = labels[1:-1] if labels else ""
        cumulative = 0
        for index in sorted(int(i) for i in payload.get("buckets", {})):
            cumulative += payload["buckets"][str(index)]
            upper = bucket_bounds(index)[1]
            label_list = [item for item in (inner,) if item]
            label_list.append(f'le="{upper:g}"')
            lines.append(f"{name}_bucket{{{','.join(label_list)}}} {cumulative}")
        label_list = [item for item in (inner,) if item]
        label_list.append('le="+Inf"')
        lines.append(
            f"{name}_bucket{{{','.join(label_list)}}} {payload.get('count', 0)}"
        )
        lines.append(f"{name}_count{labels} {payload.get('count', 0)}")
        lines.append(f"{name}_sum{labels} {payload.get('sum', 0.0):g}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_document(*series: dict, tracer: Tracer | None = None) -> dict:
    """The combined metrics+spans snapshot as one JSON-able dict.

    ``series`` are snapshot-shaped component exports (a server's
    ``stats_snapshot()``, a session's ``stats.series("client")``)
    merged into the tracer's snapshot, which holds only span timings.
    """
    tracer = tracer if tracer is not None else get_tracer()
    metrics = tracer.snapshot()
    return {
        "metrics": merge_snapshots(metrics, *series) if series else metrics,
        "spans": [
            {
                "name": record.name,
                "labels": dict(record.labels),
                "start_ns": record.start_ns,
                "duration_ns": record.duration_ns,
                "depth": record.depth,
                "root": record.root,
                "root_name": record.root_name,
                "thread_id": record.thread_id,
            }
            for record in tracer.records()
        ],
    }


def save_snapshot(
    path: str | pathlib.Path,
    *series: dict,
    tracer: Tracer | None = None,
) -> dict:
    """Write the combined metrics+spans snapshot JSON (``series`` as in
    :func:`snapshot_document`); returns the dict."""
    document = snapshot_document(*series, tracer=tracer)
    pathlib.Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def load_snapshot(path: str | pathlib.Path) -> tuple[dict, list[SpanRecord]]:
    """Read a saved snapshot back as ``(metrics, span_records)``."""
    document = json.loads(pathlib.Path(path).read_text())
    records = [
        SpanRecord(
            name=span["name"],
            labels=tuple(sorted(span.get("labels", {}).items())),
            start_ns=span["start_ns"],
            duration_ns=span["duration_ns"],
            depth=span["depth"],
            root=span["root"],
            root_name=span.get("root_name", span["name"]),
            thread_id=span.get("thread_id", 0),
        )
        for span in document.get("spans", [])
    ]
    return document.get("metrics", {}), records
