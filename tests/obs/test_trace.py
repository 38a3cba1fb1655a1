"""Unit tests for the span tracer."""

import threading

import pytest

from repro.obs.export import snapshot_document
from repro.obs.trace import (
    Tracer,
    get_tracer,
    trace,
    tracing,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _clean_tracer():
    tracer = get_tracer()
    tracer.clear()
    yield
    tracer.enabled = False
    tracer.clear()


class TestDisabledPath:
    def test_tracing_is_disabled_by_default(self):
        assert not tracing_enabled()

    def test_disabled_trace_returns_shared_null_span(self):
        first = trace("anything")
        second = trace("other", label=1)
        assert first is second  # one shared no-op object, no allocation

    def test_disabled_spans_record_nothing(self):
        with trace("quiet"):
            pass
        assert get_tracer().records() == []


class TestEnabledPath:
    def test_span_records_name_labels_duration(self):
        with tracing():
            with trace("work", segment=3):
                pass
        (record,) = get_tracer().records()
        assert record.name == "work"
        assert record.labels == (("segment", "3"),)
        assert record.duration_ns >= 0
        assert record.root_name == "work"

    def test_nesting_tracks_depth_and_root(self):
        with tracing():
            with trace("outer"):
                with trace("inner"):
                    with trace("leaf"):
                        pass
        by_name = {r.name: r for r in get_tracer().records()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["leaf"].depth == 2
        assert by_name["inner"].root == by_name["outer"].root
        assert by_name["leaf"].root_name == "outer"

    def test_sibling_roots_get_distinct_sequence_numbers(self):
        with tracing():
            with trace("round"):
                pass
            with trace("round"):
                pass
        roots = {r.root for r in get_tracer().records()}
        assert len(roots) == 2

    def test_children_finish_before_parents(self):
        with tracing():
            with trace("parent"):
                with trace("child"):
                    pass
        names = [r.name for r in get_tracer().records()]
        assert names == ["child", "parent"]

    def test_threads_keep_independent_stacks(self):
        errors = []

        def worker(name):
            try:
                with trace(name):
                    with trace(f"{name}-inner"):
                        pass
            except Exception as exc:  # pragma: no cover - defensive
                errors.append(exc)

        with tracing():
            threads = [
                threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        records = get_tracer().records()
        roots = {r.root for r in records if r.depth == 0}
        assert len(roots) == 4  # no cross-thread root sharing
        for record in records:
            if record.depth == 1:
                assert record.root_name == record.name.removesuffix("-inner")

    def test_tracing_scope_restores_previous_state(self):
        assert not tracing_enabled()
        with tracing():
            assert tracing_enabled()
            with tracing(False):
                assert not tracing_enabled()
            assert tracing_enabled()
        assert not tracing_enabled()

    def test_exception_still_finishes_span(self):
        with tracing():
            with pytest.raises(RuntimeError):
                with trace("doomed"):
                    raise RuntimeError("boom")
        (record,) = get_tracer().records()
        assert record.name == "doomed"


class TestRegistryMirror:
    def test_spans_mirror_into_span_ns_histogram(self):
        with tracing() as tracer:
            with trace("mirrored"):
                pass
            with trace("mirrored"):
                pass
        payload = tracer.snapshot()["histograms"]['span_ns{span="mirrored"}']
        assert payload["count"] == 2
        assert payload["sum"] > 0
        assert payload["sum"] == sum(r.duration_ns for r in tracer.records())


class TestClear:
    def test_clear_drops_records_and_span_histograms(self):
        with tracing() as tracer:
            with trace("before_clear"):
                pass
        assert tracer.records() and tracer.snapshot()["histograms"]
        tracer.clear()
        assert tracer.records() == []
        assert tracer.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_spans_traced_after_clear_reach_the_snapshot_document(self):
        with tracing() as tracer:
            with trace("span_a"):
                pass
            tracer.clear()
            with trace("span_a"):
                pass
            with trace("span_b"):
                pass
        document = snapshot_document()
        assert set(document["metrics"]) == {"counters", "gauges", "histograms"}
        histograms = document["metrics"]["histograms"]
        assert set(histograms) == {'span_ns{span="span_a"}', 'span_ns{span="span_b"}'}
        assert histograms['span_ns{span="span_a"}']["count"] == 1
        assert histograms['span_ns{span="span_b"}']["count"] == 1
        assert [span["name"] for span in document["spans"]] == ["span_a", "span_b"]


class TestCapacity:
    def test_retention_is_bounded(self):
        tracer = Tracer(capacity=4)
        tracer.enabled = True
        for i in range(10):
            with tracer_span(tracer, f"s{i}"):
                pass
        names = [r.name for r in tracer.records()]
        assert names == ["s6", "s7", "s8", "s9"]


def tracer_span(tracer, name):
    """Open a span on a specific tracer (the module helper uses the
    process tracer; capacity tests need an isolated one)."""
    from repro.obs.trace import _Span

    return _Span(tracer, name, {})
