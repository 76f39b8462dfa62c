"""Event counts: how often each kind of thing happened.

Every kind of event is already counted where it happens, by a counter of
the deployment's :class:`~repro.obs.metrics.MetricsRegistry` (a balancer
probe bumps ``balance.probes``, a scheduled repair job
``repair.scheduled``) or, for root spans, by its span
:class:`~repro.obs.spans.Tracer`.  :data:`KINDS` names, for each kind,
the counts it reads, and :class:`EventTracer` reads them when its counts
are read: nothing is counted twice, and the tracer's size does not grow
with the run or with the number of components feeding the registry.

An event is a count and nothing else: reports carry
:meth:`EventTracer.counts`, and the record of *what happened when* is the
span stream and the health rows, which carry the payloads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.obs.spans import Tracer

NODE_JOIN = "node.join"

#: Each event kind and the counts it sums: counters of the metrics
#: registry, except the ``span.*`` kinds (:data:`SPAN_KINDS`), which read
#: the span tracer's root spans.  The schema is in docs/observability.md.
KINDS = {
    "balance.probe": ("balance.probes",),
    "balance.move": ("balance.moves",),
    "pointer.create": ("pointer.adopted",),
    "pointer.flush": ("pointer.stabilized",),
    "store.migration": ("store.migrations",),
    "membership.join": ("membership.joins",),
    "membership.leave": ("membership.leaves",),
    "membership.crash": ("membership.crashes",),
    NODE_JOIN: ("membership.joins",),
    "node.leave": ("membership.leaves", "membership.crashes"),
    "repair.schedule": ("repair.scheduled",),
    "repair.complete": ("repair.completed",),
    "repair.retry": ("repair.retries",),
    "repair.loss": ("repair.lost_keys",),
    "dht.learned.retrain": ("dht.learned.retrain",),
    "health.alert_fire": ("health.alerts_fired",),
    "health.alert_resolve": ("health.alerts_resolved",),
    "lookup.hit": ("lookup.hits",),
    "lookup.miss": ("lookup.misses",),
    "lookup.stale": ("lookup.stale_hits",),
    "span.start": ("roots_started",),
    "span.finish": ("_roots_finished",),
}

SPAN_KINDS = ("span.start", "span.finish")


class EventError(Exception):
    """Raised when an unknown event kind is emitted."""


class EventTracer:
    """Exact per-kind event counts, read from *registry* and *spans*.

    The one count no component keeps is a deployment's founding nodes:
    they join the ring before there is a membership service to count
    them, so the deployment counts them with :meth:`emit` as ``node.join``
    events, to which the ``membership.joins`` counter adds every later join.
    """

    def __init__(self, registry: MetricsRegistry, spans: "Tracer") -> None:
        self._registry = registry
        self._spans = spans
        self._emitted: Dict[str, int] = {}

    def emit(self, kind: str, count: int = 1) -> None:
        """Count *count* events of *kind* that no counter of the registry keeps."""
        if count < 1:
            raise EventError(f"an emit counts at least one event, got {count}")
        if kind not in KINDS:
            raise EventError(f"unknown event kind {kind!r}")
        self._emitted[kind] = self._emitted.get(kind, 0) + count

    @property
    def emitted(self) -> int:
        """Total events ever."""
        return sum(self.counts().values())

    def counts(self) -> Dict[str, int]:
        """Per-kind totals, sorted by kind (JSON-ready); kinds never seen are left out.

        Reading creates no counter, so a snapshot's ``counters`` section
        is the same whether or not the events were read first.
        """
        get = self._registry.get
        counts = {}
        for kind, names in sorted(KINDS.items()):
            if kind in SPAN_KINDS:
                count = sum(getattr(self._spans, name) for name in names)
            else:
                count = sum(metric.value for metric in map(get, names) if metric is not None)
            count += self._emitted.get(kind, 0)
            if count:
                counts[kind] = count
        return counts
