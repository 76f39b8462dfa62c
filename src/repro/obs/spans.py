"""Causal span tracing: who spent the time inside one operation.

Counters (:mod:`repro.obs.metrics`) and event counts
(:mod:`repro.obs.events`) say *how much* — spans say *what happened when,
and where the time in one operation went*.  A :class:`Span` is an
interval of simulated time with a name, a parent, and JSON-safe
attributes; the spans of one operation form a tree rooted at the
operation itself (Dapper's model, in sim-time).  A traced block fetch
looks like::

    fetch ─┬─ lookup ── dht.route ─┬─ dht.hop × k
           │                       └─ dht.response
           └─ transfer ─┬─ net.request
                        ├─ tcp.transfer
                        └─ queue.wait (only when contention dominates)

The :class:`Tracer` splits what it records the way Dapper does.  Its root
counts are exact at every sample rate: every :meth:`Tracer.start_trace`
and :meth:`Tracer.instant` numbers one root (``roots_started``, the
``span.start`` event count).  Span objects are kept only for a head
sample of whole traces (``$REPRO_TRACE_SAMPLE``, default 1/16), chosen
by the root's ordinal *n* alone: root *n* is kept iff
``ceil(n * rate) > ceil((n - 1) * rate)``, so a tracer keeps its first
root and then one in 16, the same ones on every run and in every worker.
An unsampled root is ``None``; every call site tests ``span is not None``
before it annotates or parents one, so the children of a dropped root
are dropped too, and a dropped root costs one bump of the root count.
The kept spans sit in a bounded ring buffer of payloads, read by the
exporters through :meth:`Tracer.drain` and :meth:`Tracer.to_dicts`.

Export is JSONL (one span object per line; see :data:`SPAN_FIELDS`),
consumed by ``python -m repro.obs trace`` for tree reconstruction,
critical-path extraction, and per-phase latency attribution.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

#: Environment knob for head-based sampling (fraction of traces kept).
SAMPLE_ENV = "REPRO_TRACE_SAMPLE"
DEFAULT_SAMPLE = 1 / 16

#: The JSONL schema: required keys of one exported span object.
SPAN_FIELDS = ("trace_id", "span_id", "parent_id", "name", "start", "end", "attrs")


class SpanError(Exception):
    """Raised on invalid span lifecycle usage (double finish, end < start)."""


class Span:
    """One named interval of simulated time within a trace tree.

    Only a :class:`Tracer` makes and closes one.  A :class:`Tracer`
    numbers its traces and spans with plain ints, which a span keeps
    (``trace_no`` / ``span_no`` / ``parent_no``); :func:`_span_dicts`
    formats them (``t0000002a``) on export.
    """

    __slots__ = ("trace_no", "span_no", "parent_no", "name", "start", "end", "attrs")

    trace_no: int
    span_no: int
    parent_no: Optional[int]
    name: str
    start: float
    end: Optional[float]
    attrs: Dict[str, object]

    def annotate(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self


def _span_dicts(spans: Iterable[Span]) -> List[Dict[str, object]]:
    """The exported *spans*: a tracer's numbers as ``t``/``s`` and 8 hex
    digits (the only place they are formatted), in one Python call."""
    return [
        {
            "trace_id": "t%08x" % span.trace_no,
            "span_id": "s%08x" % span.span_no,
            "parent_id": None if span.parent_no is None else "s%08x" % span.parent_no,
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "attrs": dict(span.attrs),
        }
        for span in spans
    ]


_new_span = object.__new__  # a Span with its slots still empty, in no Python frame


class SampleRateError(SpanError, ValueError):
    """Raised when a sample rate is not a number (or is NaN)."""


def _sample_rate(value: object, source: str) -> float:
    """*value* as a sample rate clamped to [0, 1]; a value that is no
    number, or NaN, raises :class:`SampleRateError` naming it."""
    try:
        rate = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        rate = math.nan
    if math.isnan(rate):
        raise SampleRateError(f"{source} must be a number in [0, 1], got {value!r}")
    return min(1.0, max(0.0, rate))


def sample_rate_from_env(default: float = DEFAULT_SAMPLE) -> float:
    """``$REPRO_TRACE_SAMPLE`` clamped to [0, 1]; *default* when unset.

    A value that is no number, or NaN, raises :class:`SampleRateError`.
    """
    # Knob: which traces keep span objects, never what a cell computes.
    raw = os.environ.get(SAMPLE_ENV, "").strip()  # lint: allow=DET004
    if not raw:
        return default
    return _sample_rate(raw, f"${SAMPLE_ENV}")


class Tracer:
    """Span factory with exact root counts and an ordinal head sample.

    Parameters
    ----------
    capacity:
        Ring-buffer size for span payloads (counts stay exact past it).
    sample:
        Fraction of traces kept, by root ordinal (module docstring).
        ``None`` reads ``$REPRO_TRACE_SAMPLE`` (default 1/16).

    :meth:`start_trace`, :meth:`start_span`, :meth:`instant` and
    :meth:`finish` each run in one Python frame: they sit on every traced
    operation's path, so each builds or closes its span itself.  Each
    returns ``None`` for a span that is not kept.
    """

    def __init__(self, capacity: int = 4096, *, sample: Optional[float] = None) -> None:
        if capacity < 1:
            raise SpanError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.sample = (sample_rate_from_env() if sample is None
                       else _sample_rate(sample, "Tracer(sample=...)"))
        self._buffer: Deque[Span] = deque(maxlen=capacity)
        # One number names a kept trace, the next its root span, and each
        # child span takes one more.
        self._ids = 0
        self.started = 0      # kept spans ever created (incl. rotated out)
        self.finished = 0     # kept spans finished
        self.roots_started = 0  # every root, kept or not: ``span.start``
        self._open_roots = 0    # kept roots not yet finished
        # Ordinal of the next root to keep (the first, unless nothing is).
        self._keep = 1 if self.sample > 0.0 else math.inf

    def __bool__(self) -> bool:
        """Always true: a tracer counts roots at every rate (``len`` is
        only the buffer's)."""
        return True

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def roots_finished(self) -> int:
        """Roots finished: an event tracer's ``span.finish`` count.  Every
        call site finishes its root in the call that started it, so an
        unsampled root counts as finished once it is numbered."""
        return self.roots_started - self._open_roots

    def _next_kept(self, n: int) -> int:
        """The ordinal of the first root after root *n* that is kept: the
        least ``m`` with ``ceil(m * rate) > ceil(n * rate)``, searched up
        from ``kept / rate``, which is never past it."""
        rate, ceil = self.sample, math.ceil
        kept = ceil(n * rate)
        m = int(kept / rate)
        while ceil(m * rate) <= kept:
            m += 1
        return m

    # ------------------------------------------------------------------
    # span creation

    def start_trace(self, name: str, start: float, **attrs: object) -> Optional[Span]:
        """Number a root and open its span if the head sample keeps it.
        The caller's keyword arguments become its attributes as they are."""
        self.roots_started = n = self.roots_started + 1
        if n < self._keep:
            return None
        self._keep = self._next_kept(n)
        self._ids = ids = self._ids + 2
        span = _new_span(Span)
        span.trace_no, span.span_no, span.parent_no = ids - 1, ids, None
        span.name, span.start, span.end, span.attrs = name, float(start), None, attrs
        self._buffer.append(span)
        self.started += 1
        self._open_roots += 1
        return span

    def start_span(self, name: str, start: float, parent: Optional[Span],
                   **attrs: object) -> Optional[Span]:
        """Open a child span; a dropped parent (``None``) has none."""
        if parent is None:
            return None
        self._ids = ids = self._ids + 1
        span = _new_span(Span)
        span.trace_no, span.span_no, span.parent_no = parent.trace_no, ids, parent.span_no
        span.name, span.start, span.end, span.attrs = name, float(start), None, attrs
        self._buffer.append(span)
        self.started += 1
        return span

    def instant(self, name: str, at: float, **attrs: object) -> Optional[Span]:
        """:meth:`start_trace` and :meth:`finish` at sim-time *at*, in one call."""
        self.roots_started = n = self.roots_started + 1
        if n < self._keep:
            return None
        self._keep = self._next_kept(n)
        self._ids = ids = self._ids + 2
        span = _new_span(Span)
        span.trace_no, span.span_no, span.parent_no = ids - 1, ids, None
        span.name, span.attrs = name, attrs
        span.start = span.end = float(at)
        self._buffer.append(span)
        self.started += 1
        self.finished += 1
        return span

    def finish(self, span: Optional[Span], end: float) -> Optional[Span]:
        """Close *span* at sim-time *end* (a dropped span is left ``None``)."""
        if span is None:
            return None
        if span.end is not None:
            raise SpanError(f"span {span.name!r} already finished")
        if end < span.start:
            raise SpanError(f"span {span.name!r} cannot end at {end} before start {span.start}")
        span.end = float(end)
        self.finished += 1
        if span.parent_no is None:
            self._open_roots -= 1
        return span

    # ------------------------------------------------------------------
    # introspection / export

    def to_dicts(self) -> List[Dict[str, object]]:
        """Buffered spans as JSON-safe dicts (open spans have ``end: null``)."""
        return _span_dicts(self._buffer)

    def drain(self) -> List[Dict[str, object]]:
        """Pop all *finished* buffered spans as JSON-safe dicts.

        Open spans stay buffered until they finish; cumulative counts and
        totals are untouched, so repeated drains see every finished span
        exactly once.
        This is the streaming-export primitive: a long run drains to a
        :class:`repro.obs.stream.JsonlWriter` every window, keeping the
        tracer's memory footprint independent of run length.
        """
        finished = [s for s in self._buffer if s.end is not None]
        if finished:
            open_spans = [s for s in self._buffer if s.end is None]
            self._buffer.clear()
            self._buffer.extend(open_spans)
        return _span_dicts(finished)


def validate_span_dict(payload: object) -> List[str]:
    """All schema violations in one decoded JSONL span object."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"span must be a JSON object, got {type(payload).__name__}"]
    for field in SPAN_FIELDS:
        if field not in payload:
            problems.append(f"missing field {field!r}")
    for field in ("trace_id", "span_id", "name"):
        value = payload.get(field)
        if field in payload and (not isinstance(value, str) or not value):
            problems.append(f"{field} must be a non-empty string")
    parent = payload.get("parent_id")
    if "parent_id" in payload and parent is not None and not isinstance(parent, str):
        problems.append("parent_id must be a string or null")
    start = payload.get("start")
    if "start" in payload and not isinstance(start, (int, float)):
        problems.append("start must be a number")
    end = payload.get("end")
    if "end" in payload and end is not None and not isinstance(end, (int, float)):
        problems.append("end must be a number or null")
    if (
        isinstance(start, (int, float))
        and isinstance(end, (int, float))
        and end < start
    ):
        problems.append(f"end {end} precedes start {start}")
    if "attrs" in payload and not isinstance(payload.get("attrs"), dict):
        problems.append("attrs must be an object")
    return problems
