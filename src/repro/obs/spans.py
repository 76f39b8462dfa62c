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

The :class:`Tracer` keeps a bounded ring buffer of span payloads — read by
the exporters, through :meth:`Tracer.drain` and :meth:`Tracer.to_dicts` —
plus *exact* per-name counts for the whole run.  Head-based sampling is
decided once per trace (``$REPRO_TRACE_SAMPLE``, default 1.0): an
unsampled root is the falsy :data:`NULL_SPAN`, and every child of a null
span is null, so a dropped trace costs one RNG draw and the hot path
otherwise pays only truthiness checks.  A tracer whose sample rate is 0 is
itself falsy, so ``if tracer:`` guards skip instrumentation entirely.

Export is JSONL (one span object per line; see :data:`SPAN_FIELDS`),
consumed by ``python -m repro.obs trace`` for tree reconstruction,
critical-path extraction, and per-phase latency attribution.
"""

from __future__ import annotations

import math
import os
import random
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Union

#: Environment knob for head-based sampling (fraction of traces kept).
SAMPLE_ENV = "REPRO_TRACE_SAMPLE"
DEFAULT_SAMPLE = 1.0

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

    sampled = True
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


class _NullSpan:
    """Falsy stand-in for unsampled/disabled spans: every call site tests a
    span with ``if span:`` before it annotates or parents one."""

    __slots__ = ()

    sampled = False
    trace_no = span_no = parent_no = None
    name = ""
    start = 0.0
    end: Optional[float] = None

    def __bool__(self) -> bool:
        return False


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


#: The singleton null span.  ``bool(NULL_SPAN)`` is False, so call sites
#: guard expensive annotation work with a plain truthiness check.
NULL_SPAN = _NullSpan()

SpanLike = Union[Span, _NullSpan]

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
    """Span factory with head sampling, bounded retention, exact counts.

    Parameters
    ----------
    capacity:
        Ring-buffer size for span payloads (counts stay exact past it).
    sample:
        Fraction of traces kept, decided at :meth:`start_trace`.  ``None``
        reads ``$REPRO_TRACE_SAMPLE`` (default 1.0).
    seed:
        Sampling-RNG seed; fixed so identical runs sample identically.

    :meth:`start_trace`, :meth:`start_span`, :meth:`instant` and
    :meth:`finish` each run in one Python frame: they sit on every traced
    operation's path, so each builds or closes its span itself.
    """

    def __init__(
        self,
        capacity: int = 4096,
        *,
        sample: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        if capacity < 1:
            raise SpanError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.sample = (sample_rate_from_env() if sample is None
                       else _sample_rate(sample, "Tracer(sample=...)"))
        self._rng = random.Random(seed)
        self._buffer: Deque[Span] = deque(maxlen=capacity)
        self._counts: Dict[str, int] = {}
        # One number names a trace, the next its root span, and each child
        # span takes one more: so ``_ids - started`` is the roots started.
        self._ids = 0
        self.started = 0      # sampled spans ever created (incl. rotated out)
        self.finished = 0
        self.sampled_out = 0  # root spans dropped by head sampling
        self._roots_finished = 0  # an event tracer's ``span.finish`` count

    @classmethod
    def from_env(cls, *, capacity: int = 4096, seed: int = 0) -> "Tracer":
        """Tracer sampling at ``$REPRO_TRACE_SAMPLE`` (falsy when that is 0)."""
        return cls(capacity, seed=seed)

    def __bool__(self) -> bool:
        """False when nothing is sampled: a 0-rate run pays only the ``if
        tracer:`` truthiness check on every hot-path instrumentation site
        (see ``benchmarks/bench_micro_spans.py``)."""
        return self.sample > 0.0

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def roots_started(self) -> int:
        """Sampled root spans started (each took two ids): an event
        tracer's ``span.start`` count."""
        return self._ids - self.started

    # ------------------------------------------------------------------
    # span creation

    def start_trace(self, name: str, start: float, **attrs: object) -> SpanLike:
        """Open a root span, applying the head-sampling decision.  The
        caller's keyword arguments become its attributes as they are."""
        sample = self.sample
        if sample < 1.0 and (sample <= 0.0 or self._rng.random() >= sample):
            self.sampled_out += 1
            return NULL_SPAN
        self._ids = ids = self._ids + 2
        span = _new_span(Span)
        span.trace_no, span.span_no, span.parent_no = ids - 1, ids, None
        span.name, span.start, span.end, span.attrs = name, float(start), None, attrs
        self._buffer.append(span)
        counts = self._counts
        counts[name] = counts.get(name, 0) + 1
        self.started += 1
        return span

    def start_span(self, name: str, start: float, parent: SpanLike,
                   **attrs: object) -> SpanLike:
        """Open a child span; children of null spans are null (free)."""
        if parent is NULL_SPAN or not parent:
            return NULL_SPAN
        self._ids = ids = self._ids + 1
        span = _new_span(Span)
        span.trace_no, span.span_no, span.parent_no = parent.trace_no, ids, parent.span_no
        span.name, span.start, span.end, span.attrs = name, float(start), None, attrs
        self._buffer.append(span)
        counts = self._counts
        counts[name] = counts.get(name, 0) + 1
        self.started += 1
        return span

    def instant(self, name: str, at: float, **attrs: object) -> SpanLike:
        """:meth:`start_trace` and :meth:`finish` at sim-time *at*, in one call."""
        sample = self.sample
        if sample < 1.0 and (sample <= 0.0 or self._rng.random() >= sample):
            self.sampled_out += 1
            return NULL_SPAN
        self._ids = ids = self._ids + 2
        span = _new_span(Span)
        span.trace_no, span.span_no, span.parent_no = ids - 1, ids, None
        span.name, span.attrs = name, attrs
        span.start = span.end = float(at)
        self._buffer.append(span)
        counts = self._counts
        counts[name] = counts.get(name, 0) + 1
        self.started += 1
        self.finished += 1
        self._roots_finished += 1
        return span

    def finish(self, span: SpanLike, end: float) -> SpanLike:
        """Close *span* at sim-time *end*."""
        if span is NULL_SPAN or not span:
            return span
        if span.end is not None:
            raise SpanError(f"span {span.name!r} already finished")
        if end < span.start:
            raise SpanError(f"span {span.name!r} cannot end at {end} before start {span.start}")
        span.end = float(end)
        self.finished += 1
        if span.parent_no is None:
            self._roots_finished += 1
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
