"""Typed event counts: how often each kind of thing happened.

Components emit one of a typed vocabulary of event kinds (lookup cache
hits/misses/staleness faults, balancer probes and moves, pointer
adoption/flush, migrations, membership changes).  The core vocabulary is
fixed here; subsystems extend it through :func:`register_kind` (e.g. the
span-boundary kinds of :mod:`repro.obs.spans`) — emitting anything
unregistered stays an :class:`EventError`.

An event is a count and nothing else: reports carry :meth:`EventTracer.counts`,
and the record of *what happened when* is the span stream and the health
rows, which carry the payloads.  So the tracer's size is the size of the
vocabulary plus one entry per derived count (:meth:`EventTracer.derive`),
whatever the length of the run.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

# Core event vocabulary (the schema is documented in docs/observability.md).
LOOKUP_HIT = "lookup.hit"
LOOKUP_MISS = "lookup.miss"
LOOKUP_STALE = "lookup.stale"
BALANCE_PROBE = "balance.probe"
BALANCE_MOVE = "balance.move"
POINTER_CREATE = "pointer.create"
POINTER_FLUSH = "pointer.flush"
MIGRATION = "store.migration"
NODE_JOIN = "node.join"
NODE_LEAVE = "node.leave"

#: The immutable core vocabulary, kept for reference and docs.
BASE_EVENT_KINDS = frozenset(
    (
        LOOKUP_HIT,
        LOOKUP_MISS,
        LOOKUP_STALE,
        BALANCE_PROBE,
        BALANCE_MOVE,
        POINTER_CREATE,
        POINTER_FLUSH,
        MIGRATION,
        NODE_JOIN,
        NODE_LEAVE,
    )
)

#: The live vocabulary: core kinds plus everything registered through
#: :func:`register_kind`.  Emission of anything outside this set is still
#: an :class:`EventError` — extension widens the vocabulary, it does not
#: remove the typo guard.
EVENT_KINDS = set(BASE_EVENT_KINDS)


class EventError(Exception):
    """Raised when an unknown event kind is emitted."""


def register_kind(kind: str) -> str:
    """Add *kind* to the event vocabulary; returns it for assignment.

    Idempotent, so independent modules can register the same kind without
    coordination.  Registration is process-wide (module-level), matching
    how the constant kinds are shared.
    """
    if not isinstance(kind, str) or not kind:
        raise EventError(f"event kind must be a non-empty string, got {kind!r}")
    EVENT_KINDS.add(kind)
    return kind


class EventTracer:
    """Exact per-kind event counts for the whole run.

    Most counts are emitted here one :meth:`emit` at a time.  A count some
    component keeps anyway (a span tracer's root spans, a deployment's
    ``lookup.*`` counters) is registered with :meth:`derive` instead: it is
    read when :meth:`counts` or :attr:`emitted` is read, and adds to what
    was emitted.  A count registered again is read once, so the tracer
    holds one entry per distinct count — two per span tracer and three per
    metrics registry, however many lookup caches feed that registry.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._derived: Dict[Tuple[Any, str], str] = {}  # (source, attribute) -> kind

    def emit(self, kind: str, count: int = 1) -> None:
        """Count *count* events of *kind* (one, unless they are tallied in bulk)."""
        if count < 1:
            raise EventError(f"an emit counts at least one event, got {count}")
        if kind not in EVENT_KINDS:
            raise EventError(f"unknown event kind {kind!r}")
        self._counts[kind] = self._counts.get(kind, 0) + count

    def derive(self, kind: str, source: Any, attribute: str) -> None:
        """Count ``source.<attribute>`` — a count that never falls — as
        events of *kind*, read when the counts are read."""
        if kind not in EVENT_KINDS:
            raise EventError(f"unknown event kind {kind!r}")
        self._derived[(source, attribute)] = kind

    @property
    def emitted(self) -> int:
        """Total events ever."""
        total = sum(self._counts.values())
        for source, attribute in self._derived:
            total += getattr(source, attribute)
        return total

    def counts(self) -> Dict[str, int]:
        """Per-kind totals, sorted by kind (JSON-ready)."""
        counts = dict(self._counts)
        for (source, attribute), kind in self._derived.items():
            count = getattr(source, attribute)
            if count:
                counts[kind] = counts.get(kind, 0) + count
        return dict(sorted(counts.items()))
