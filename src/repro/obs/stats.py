"""The explicit cumulative contract every stats dataclass follows.

Counters only grow as work happens; nothing resets them behind the
caller's back.  A caller wanting per-call or per-phase figures takes a
:meth:`~CumulativeStats.snapshot` before and diffs with
:meth:`~CumulativeStats.delta`, or calls :meth:`~CumulativeStats.reset`
between phases.  A component's stats object is its one ledger:
:meth:`~CumulativeStats.series` exports it in the registry's snapshot
shape, and an endpoint's ``stats_snapshot()`` is built from that export
(nothing mirrors the fields into the process registry).
``tests/test_stats_contract.py`` audits every subclass.
"""

from __future__ import annotations

from dataclasses import fields


class CumulativeStats:
    """``snapshot``/``delta``/``reset``/``as_dict``/``series`` over
    dataclass fields.

    Mix into a ``@dataclass`` of counters.  A field that is itself a
    :class:`CumulativeStats` (e.g. a session's nested wire stats) is
    copied, diffed and reset with it.
    """

    def snapshot(self) -> CumulativeStats:
        """An independent copy of the current totals."""
        return type(self)(
            **{
                f.name: _nested_or(getattr(self, f.name), "snapshot")
                for f in fields(self)
            }
        )

    def delta(self, since: CumulativeStats) -> CumulativeStats:
        """Counts accumulated after ``since`` (an earlier snapshot)."""
        values = {}
        for f in fields(self):
            value, before = getattr(self, f.name), getattr(since, f.name)
            values[f.name] = (
                value.delta(before)
                if isinstance(value, CumulativeStats)
                else value - before
            )
        return type(self)(**values)

    def reset(self) -> CumulativeStats:
        """Zero the counters; returns a snapshot of the values cleared."""
        cleared = self.snapshot()
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, CumulativeStats):
                value.reset()
            else:
                setattr(self, f.name, f.default)
        return cleared

    def as_dict(self) -> dict:
        return {
            f.name: _nested_or(getattr(self, f.name), "as_dict")
            for f in fields(self)
        }

    def series(self, prefix: str) -> dict:
        """The counters as a registry-shaped snapshot.

        Field ``F`` exports as the counter ``{prefix}_F``, and a nested
        stats field ``G`` exports its own fields under ``{prefix}_G``
        (a session's ``wire.malformed`` is ``client_wire_malformed``).
        The gauges and histograms sections are empty, for the owner's
        live-state gauges; the dict folds into other snapshots with
        :func:`repro.obs.merge_snapshots`.
        """
        counters: dict[str, float] = {}
        for f in fields(self):
            value, name = getattr(self, f.name), f"{prefix}_{f.name}"
            if isinstance(value, CumulativeStats):
                counters.update(value.series(name)["counters"])
            else:
                counters[name] = float(value)
        return {"counters": counters, "gauges": {}, "histograms": {}}


def _nested_or(value, method: str):
    """``value.method()`` for nested stats, else the plain counter."""
    return getattr(value, method)() if isinstance(value, CumulativeStats) else value
