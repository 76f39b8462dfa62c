"""Sim-time sliding-window time series.

The metrics registry (PR 1) answers "what were the totals"; this module
answers "what happened *when*".  A :class:`TimeSeriesBank` holds labelled
series bucketed into fixed-width windows of **simulated** time — never
wall clock (a host-clock sample would move the health goldens in
``tests/data``).  Windows are half-open on the left,
``(start, end]``, so a sample taken exactly at a window boundary — the
cadence the health monitor uses — lands in the window that boundary
*closes*, and counter deltas line up exactly with the interval they
describe.

Two series kinds:

* ``gauge`` — point-in-time samples; the window value is an aggregate of
  the samples inside it (``last`` or ``max``).  A
  ``max`` gauge is the right shape for push-sampled spike detectors
  (e.g. the repair scheduler's replica deficit): transient peaks inside
  a window survive to the window boundary where SLO rules evaluate.
* ``counter`` — *cumulative* samples (monotone totals, e.g. a registry
  counter's value); the window value is the delta against the previous
  cumulative sample, i.e. the growth attributable to that window.

A *counted* sample (``sample(time, value, count=n)``, e.g. the repair
scheduler's one backlog reading per burst of *n* jobs) reads as *n* samples
of *value* pushed one by one: in a row's ``count``, ``last`` and ``high``
and the bank's ``samples`` and ``rejected``.  A sample into the open window
takes a fast path.

Determinism contract: every row is a pure function of the sample
sequence.  Out-of-order samples (sim-time moving backwards within one
series) are rejected deterministically and counted, never reordered.
Windows a series skipped entirely are materialised as explicit empty
rows (``count == 0``) so downstream consumers see a contiguous timeline;
pathological gaps are capped at :attr:`TimeSeriesBank.max_empty_gap`
empties per closure (the skipped remainder is counted, not emitted).

Memory contract: closed-window rows accumulate in a bounded ring buffer
(oldest dropped first, drops counted — the :class:`~repro.obs.spans.Tracer`
retention discipline) and are popped by :meth:`TimeSeriesBank.drain` for
streaming through :class:`repro.obs.stream.JsonlWriter`, so peak RSS is
independent of run length.  Concatenated drained segments analyse
identically to one undrained export.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = [
    "COUNTER",
    "GAUGE",
    "TimeSeries",
    "TimeSeriesBank",
    "TimeSeriesError",
]

GAUGE = "gauge"
COUNTER = "counter"
_KINDS = (GAUGE, COUNTER)
_AGGS = ("last", "max")


class TimeSeriesError(ValueError):
    """Raised for structural misuse (kind/agg mismatch, bad width)."""


class _OpenWindow:
    """Mutable accumulator for the window currently receiving samples."""

    __slots__ = ("index", "count", "last", "low", "high")

    def __init__(self, index: int) -> None:
        self.index = index
        self.count = 0
        self.last = 0.0
        self.low = math.inf
        self.high = -math.inf


class TimeSeries:
    """One labelled series inside a bank; create via :meth:`TimeSeriesBank.series`."""

    __slots__ = (
        "name", "kind", "agg", "labels", "width", "epoch",
        "samples", "rejected", "skipped_windows",
        "_sink", "_max_empty_gap", "_open", "_next_index",
        "_last_time", "_prev_cumulative", "_has_baseline",
    )

    def __init__(
        self,
        name: str,
        *,
        kind: str,
        agg: str,
        labels: Dict[str, str],
        width: float,
        epoch: float,
        sink: Callable[[Dict[str, Any]], None],
        max_empty_gap: int,
    ) -> None:
        if kind not in _KINDS:
            raise TimeSeriesError(f"unknown series kind {kind!r}")
        if agg not in _AGGS:
            raise TimeSeriesError(f"unknown gauge aggregation {agg!r}")
        if width <= 0:
            raise TimeSeriesError(f"window width must be positive, got {width}")
        self.name = name
        self.kind = kind
        self.agg = agg
        self.labels = dict(labels)
        self.width = float(width)
        self.epoch = float(epoch)
        self.samples = 0
        self.rejected = 0
        self.skipped_windows = 0
        self._sink = sink
        self._max_empty_gap = max_empty_gap
        self._open: Optional[_OpenWindow] = None
        #: Index of the next window allowed to open (everything below is
        #: closed); advanced monotonically, never rewound.
        self._next_index = 0
        self._last_time: Optional[float] = None
        self._prev_cumulative: Optional[float] = None
        self._has_baseline = False

    # -- window geometry ------------------------------------------------

    def _index_of(self, time: float) -> int:
        """Window index for ``time`` under ``(start, end]`` semantics."""
        return math.ceil((time - self.epoch) / self.width) - 1

    # -- sampling -------------------------------------------------------

    def sample(self, time: float, value: float, count: int = 1) -> bool:
        """Record *count* samples of *value* at sim-time ``time``.

        Returns ``False`` (and counts the rejections) when ``time`` moves
        backwards within this series, precedes the epoch, or lands in a
        window that has already been closed — rejected samples never
        perturb emitted rows, so replays stay deterministic.
        """
        if count < 1:
            raise TimeSeriesError(f"a sample counts at least one, got {count}")
        time = float(time)
        value = float(value)
        window = self._open
        if (
            window is None
            or time < self._last_time
            or math.ceil((time - self.epoch) / self.width) - 1 != window.index
        ):  # not into the open window: the slow path
            if self._last_time is not None and time < self._last_time:
                self.rejected += count
                return False
            if time < self.epoch:
                self.rejected += count
                return False
            index = self._index_of(time)
            if index < 0:
                # Exactly at the epoch: a pure baseline reading — establishes
                # the counter base without belonging to any window.
                self._note_cumulative(value)
                self._last_time = time
                self.samples += count
                return True
            if index < self._next_index and window is None:
                # Late arrival into an already-closed window.
                self.rejected += count
                return False
            if window is not None:  # a later window than the open one
                self._close_open()
            self._emit_empties(index)
            window = self._open = _OpenWindow(index)
        window.count += count
        window.last = value
        if value < window.low:
            window.low = value
        if value > window.high:
            window.high = value
        self._last_time = time
        self.samples += count
        return True

    def _note_cumulative(self, value: float) -> None:
        if not self._has_baseline:
            self._prev_cumulative = value
            self._has_baseline = True

    # -- closing --------------------------------------------------------

    def advance(self, now: float) -> None:
        """Close every window whose end lies at or before ``now``."""
        complete_through = math.floor((float(now) - self.epoch) / self.width) - 1
        if self._open is not None and self._open.index <= complete_through:
            self._close_open()
        if self._last_time is not None and complete_through >= self._next_index:
            self._emit_empties(complete_through + 1)

    def flush(self) -> None:
        """Force-close the open window (end of run: emit the partial tail)."""
        if self._open is not None:
            self._close_open()

    def _close_open(self) -> None:
        window = self._open
        assert window is not None
        self._open = None
        self._next_index = window.index + 1
        self._sink(self._row(window.index, window))

    def _emit_empties(self, up_to_index: int) -> None:
        """Materialise empty rows for windows in [_next_index, up_to_index)."""
        gap = up_to_index - self._next_index
        if gap <= 0:
            return
        if gap > self._max_empty_gap:
            # Cap pathological gaps: account for the skipped span rather
            # than emitting millions of empty rows.
            self.skipped_windows += gap - self._max_empty_gap
            self._next_index = up_to_index - self._max_empty_gap
            gap = self._max_empty_gap
        for index in range(self._next_index, up_to_index):
            self._sink(self._row(index, None))
        self._next_index = up_to_index

    def _row(self, index: int, window: Optional[_OpenWindow]) -> Dict[str, Any]:
        count = window.count if window is not None else 0
        value: Optional[float]
        if self.kind == COUNTER:
            if count:
                assert window is not None
                if self._has_baseline and self._prev_cumulative is not None:
                    base = self._prev_cumulative
                else:
                    # No baseline yet: growth observable within the window
                    # is last - first (cumulative counters are monotone,
                    # so the window minimum is its first sample).
                    base = window.low
                value = window.last - base
                self._prev_cumulative = window.last
                self._has_baseline = True
            else:
                value = 0.0
        elif count:
            assert window is not None
            value = window.last if self.agg == "last" else window.high
        else:
            value = None
        return {
            "type": "series",
            "name": self.name,
            "kind": self.kind,
            "labels": self.labels,
            "window": index,
            "start": self.epoch + index * self.width,
            "end": self.epoch + (index + 1) * self.width,
            "count": count,
            "value": value,
        }


class TimeSeriesBank:
    """A family of labelled series sharing one epoch, width and row buffer."""

    def __init__(
        self,
        *,
        width: float,
        epoch: float = 0.0,
        retention: int = 4096,
        max_empty_gap: int = 64,
    ) -> None:
        if width <= 0:
            raise TimeSeriesError(f"window width must be positive, got {width}")
        self.width = float(width)
        self.epoch = float(epoch)
        self.retention = int(retention)
        self.max_empty_gap = int(max_empty_gap)
        self.dropped_rows = 0
        self._rows: Deque[Dict[str, Any]] = deque()
        self._series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], TimeSeries] = {}

    def _append_row(self, row: Dict[str, Any]) -> None:
        if len(self._rows) >= self.retention:
            self._rows.popleft()
            self.dropped_rows += 1
        self._rows.append(row)

    def series(
        self,
        name: str,
        *,
        kind: str = GAUGE,
        agg: str = "last",
        **labels: str,
    ) -> TimeSeries:
        """Get-or-create the series ``name`` with exactly these labels."""
        key = (name, tuple(sorted(labels.items())))
        existing = self._series.get(key)
        if existing is not None:
            if existing.kind != kind or (kind == GAUGE and existing.agg != agg):
                raise TimeSeriesError(
                    f"series {name!r} already registered as "
                    f"{existing.kind}/{existing.agg}, not {kind}/{agg}"
                )
            return existing
        created = TimeSeries(
            name,
            kind=kind,
            agg=agg,
            labels=dict(labels),
            width=self.width,
            epoch=self.epoch,
            sink=self._append_row,
            max_empty_gap=self.max_empty_gap,
        )
        self._series[key] = created
        return created

    def sample(
        self,
        name: str,
        time: float,
        value: float,
        *,
        kind: str = GAUGE,
        agg: str = "last",
        **labels: str,
    ) -> bool:
        """Convenience one-shot: get-or-create then sample."""
        return self.series(name, kind=kind, agg=agg, **labels).sample(time, value)

    def advance(self, now: float) -> None:
        """Close completed windows across every series (sorted key order)."""
        for key in sorted(self._series):
            self._series[key].advance(now)

    def flush(self, now: Optional[float] = None) -> None:
        """End-of-run closure: advance (optional) then emit partial tails."""
        if now is not None:
            self.advance(now)
        for key in sorted(self._series):
            self._series[key].flush()

    def drain(self) -> List[Dict[str, Any]]:
        """Pop and return every buffered closed-window row, oldest first."""
        rows = list(self._rows)
        self._rows.clear()
        return rows

    def stats(self) -> Dict[str, int]:
        """Aggregate bookkeeping totals (all deterministic)."""
        samples = rejected = skipped = 0
        for series in self._series.values():
            samples += series.samples
            rejected += series.rejected
            skipped += series.skipped_windows
        return {
            "series": len(self._series),
            "samples": samples,
            "rejected": rejected,
            "skipped_windows": skipped,
            "dropped_rows": self.dropped_rows,
        }
