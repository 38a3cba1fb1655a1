"""Unit tests for the exporters: breakdowns, Prometheus text, snapshots."""

import json

from repro.obs.export import (
    load_snapshot,
    render_breakdown_table,
    render_metrics_summary,
    render_prometheus,
    round_breakdown,
    save_snapshot,
    self_times,
    snapshot_document,
)
from repro.obs.registry import MetricsRegistry, merge_snapshots, set_registry
from repro.obs.trace import SpanRecord, Tracer, get_tracer, trace, tracing


def span(name, duration_ns, *, depth=0, root=1, root_name=None, thread_id=1):
    return SpanRecord(
        name=name,
        labels=(),
        start_ns=0,
        duration_ns=duration_ns,
        depth=depth,
        root=root,
        root_name=root_name or name,
        thread_id=thread_id,
    )


class TestSelfTimes:
    def test_parent_is_not_charged_for_children(self):
        records = [
            span("child", 300, depth=1, root_name="parent"),
            span("parent", 1000),
        ]
        timed = dict((r.name, ns) for r, ns in self_times(records))
        assert timed == {"child": 300, "parent": 700}

    def test_grandchildren_charge_their_parent_only(self):
        records = [
            span("leaf", 100, depth=2, root_name="top"),
            span("mid", 400, depth=1, root_name="top"),
            span("top", 1000),
        ]
        timed = dict((r.name, ns) for r, ns in self_times(records))
        assert timed == {"leaf": 100, "mid": 300, "top": 600}

    def test_threads_do_not_interfere(self):
        records = [
            span("a", 500, thread_id=1),
            span("b", 700, thread_id=2),
        ]
        timed = dict((r.name, ns) for r, ns in self_times(records))
        assert timed == {"a": 500, "b": 700}


class TestRoundBreakdown:
    def make_round(self, root):
        return [
            span("wire_pack", 100, depth=1, root=root, root_name="serve_round"),
            span("gpu_encode", 600, depth=1, root=root, root_name="serve_round"),
            span("serve_round", 1000, root=root),
        ]

    def test_breakdown_counts_serve_round_roots(self):
        records = self.make_round(1) + self.make_round(2)
        breakdown = round_breakdown(records)
        stages = {stage.stage: stage for stage in breakdown}
        assert stages["encode"].rounds == 2
        assert stages["encode"].total_ns == 1200
        assert stages["encode"].per_round_ms == 1200 / 2 / 1e6
        assert stages["wire"].total_ns == 200
        assert stages["other"].total_ns == 600  # serve_round self time

    def test_breakdown_without_rounds_uses_distinct_roots(self):
        records = [span("gpu_encode", 100, root=1), span("gpu_encode", 100, root=2)]
        (stage,) = round_breakdown(records)
        assert stage.stage == "encode"
        assert stage.rounds == 2

    def test_table_renders_all_stages(self):
        table = render_breakdown_table(round_breakdown(self.make_round(1)))
        assert "encode" in table
        assert "wire" in table
        assert "1 round" in table
        assert "total" in table

    def test_empty_breakdown_renders_hint(self):
        assert "no spans" in render_breakdown_table([])


class TestPrometheus:
    def test_counters_gauges_histograms_render(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(2)
        registry.histogram("lat").observe(3.0)
        export = {"counters": {'frames{peer="1"}': 3}}
        text = render_prometheus(merge_snapshots(export, registry.snapshot()))
        assert "# TYPE frames counter" in text
        assert 'frames{peer="1"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="4"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert "lat_sum 3" in text

    def test_bucket_series_are_cumulative(self):
        registry = MetricsRegistry()
        for value in (1.0, 1.5, 3.0):
            registry.histogram("lat").observe(value)
        text = render_prometheus(registry.snapshot())
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="4"} 3' in text

    def test_histogram_labels_compose_with_le(self):
        registry = MetricsRegistry()
        registry.histogram("span_ns", span="wire_pack").observe(2.0)
        text = render_prometheus(registry.snapshot())
        assert 'span_ns_bucket{span="wire_pack",le="4"} 1' in text


class TestSnapshotFiles:
    def test_save_load_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        tracer = Tracer()
        tracer.enabled = True
        previous = set_registry(registry)
        try:
            path = tmp_path / "snap.json"
            document = save_snapshot(
                path, {"counters": {"c": 5}}, registry=registry, tracer=tracer
            )
            assert json.loads(path.read_text()) == document
            metrics, records = load_snapshot(path)
            assert metrics["counters"]["c"] == 5
            assert records == []
        finally:
            set_registry(previous)

    def test_snapshot_document_includes_live_spans(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        get_tracer().clear()
        try:
            with tracing():
                with trace("unit_span", peer=7):
                    pass
            document = snapshot_document(registry=registry)
            (recorded,) = [s for s in document["spans"] if s["name"] == "unit_span"]
            assert recorded["labels"] == {"peer": "7"}
            assert recorded["duration_ns"] >= 0
        finally:
            get_tracer().clear()
            set_registry(previous)

    def test_loaded_spans_rebuild_breakdowns(self, tmp_path):
        registry = MetricsRegistry()
        tracer = Tracer()
        tracer.enabled = True
        with span_on(tracer, "serve_round"):
            with span_on(tracer, "wire_pack"):
                pass
        previous = set_registry(registry)
        try:
            path = tmp_path / "snap.json"
            save_snapshot(path, registry=registry, tracer=tracer)
        finally:
            set_registry(previous)
        _, records = load_snapshot(path)
        stages = {s.stage for s in round_breakdown(records)}
        assert "wire" in stages

    def test_metrics_summary_mentions_every_kind(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(4.0)
        export = {"counters": {"c": 1}}
        text = render_metrics_summary(merge_snapshots(export, registry.snapshot()))
        assert "counters:" in text
        assert "gauges:" in text
        assert "histograms:" in text
        assert "mean=4" in text


def span_on(tracer, name):
    from repro.obs.trace import _Span

    return _Span(tracer, name, {})
