"""Low-overhead span tracing for the hot paths.

``with trace("gpu_encode", scheme="table_5"):`` times a region with
``time.perf_counter_ns`` and records a :class:`SpanRecord` — name,
labels, start, duration, nesting depth and which *root* span (e.g. one
``serve_round``) it belongs to.  Spans nest arbitrarily and each thread
keeps its own stack, so concurrent sessions never corrupt each other's
nesting.

Tracing is **disabled by default** and the disabled fast path is one
module-level flag check: :func:`trace` returns a shared no-op context
manager without allocating a span, so an instrumented hot path pays a
function call and a branch, nothing else (the ``observability_overhead``
benchmark pins both costs).  Enable with :func:`enable_tracing`, or
scoped with ``with tracing():``.

Every finished span is also observed into the tracer's own histogram
for its name; :meth:`Tracer.snapshot` exports them as
``span_ns{span=...}``, so a snapshot document carries the span timings
beside whatever component exports it is merged with.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter_ns

from repro.obs.registry import Histogram

__all__ = [
    "SpanRecord",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "trace",
    "tracing",
    "tracing_enabled",
]

#: Most finished spans the tracer retains (oldest evicted first).
DEFAULT_SPAN_CAPACITY = 65_536


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as retained by the tracer."""

    name: str
    labels: tuple[tuple[str, str], ...]
    start_ns: int
    duration_ns: int
    depth: int
    root: int  #: sequence number of the enclosing top-level span
    root_name: str
    thread_id: int


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[_Span] = []


class Tracer:
    """Collects finished spans and one duration histogram per span name;
    one process-wide instance by default."""

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY) -> None:
        self.enabled = False
        self._records: deque[SpanRecord] = deque(maxlen=capacity)
        self._state = _ThreadState()
        self._root_lock = threading.Lock()
        self._root_seq = 0
        self._histograms: dict[str, Histogram] = {}

    def records(self) -> list[SpanRecord]:
        """The retained spans, oldest first (a copy)."""
        return list(self._records)

    def clear(self) -> None:
        """Drop the retained spans and the span histograms."""
        self._records.clear()
        self._histograms.clear()

    def snapshot(self) -> dict:
        """The span histograms as a snapshot (``span_ns{span="..."}``
        series; see :func:`~repro.obs.registry.merge_snapshots`)."""
        return {
            "counters": {},
            "gauges": {},
            "histograms": {
                f'span_ns{{span="{name}"}}': histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def _next_root(self) -> int:
        with self._root_lock:
            self._root_seq += 1
            return self._root_seq

    def _finish(self, span: "_Span", duration_ns: int) -> None:
        record = SpanRecord(
            name=span.name,
            labels=span.labels,
            start_ns=span.start_ns,
            duration_ns=duration_ns,
            depth=span.depth,
            root=span.root,
            root_name=span.root_name,
            thread_id=threading.get_ident(),
        )
        self._records.append(record)
        histogram = self._histograms.get(span.name)
        if histogram is None:
            histogram = self._histograms.setdefault(span.name, Histogram())
        histogram.observe(duration_ns)


class _NullSpan:
    """The shared disabled-path context manager; does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "labels", "start_ns", "depth", "root", "root_name")

    def __init__(self, tracer: Tracer, name: str, labels: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.labels = tuple(sorted((key, str(value)) for key, value in labels.items()))
        self.start_ns = 0
        self.depth = 0
        self.root = 0
        self.root_name = name

    def __enter__(self) -> "_Span":
        stack = self.tracer._state.stack
        if stack:
            parent = stack[-1]
            self.depth = parent.depth + 1
            self.root = parent.root
            self.root_name = parent.root_name
        else:
            self.root = self.tracer._next_root()
        stack.append(self)
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        duration = perf_counter_ns() - self.start_ns
        stack = self.tracer._state.stack
        if stack and stack[-1] is self:
            stack.pop()
        self.tracer._finish(self, duration)
        return False


#: The process-wide tracer every ``trace()`` call writes to.
_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer every :func:`trace` call writes to."""
    return _tracer


def trace(name: str, **labels: object):
    """Time a region: ``with trace("decode_intake", segment=0): ...``.

    Returns a shared no-op context manager while tracing is disabled —
    the disabled hot path allocates nothing.
    """
    tracer = _tracer
    if not tracer.enabled:
        return _NULL_SPAN
    return _Span(tracer, name, labels)


def tracing_enabled() -> bool:
    """Whether :func:`trace` currently records spans."""
    return _tracer.enabled


def enable_tracing() -> None:
    """Start recording spans (see :func:`tracing` for a scoped form)."""
    _tracer.enabled = True


def disable_tracing() -> None:
    """Stop recording spans; :func:`trace` returns the shared no-op."""
    _tracer.enabled = False


@dataclass
class _TracingScope:
    enabled: bool = True
    _previous: bool = field(default=False, init=False)

    def __enter__(self) -> Tracer:
        self._previous = _tracer.enabled
        _tracer.enabled = self.enabled
        return _tracer

    def __exit__(self, *exc_info: object) -> bool:
        _tracer.enabled = self._previous
        return False


def tracing(enabled: bool = True) -> _TracingScope:
    """Scoped enable/disable: ``with tracing(): ...`` restores on exit."""
    return _TracingScope(enabled)
