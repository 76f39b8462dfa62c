"""Selectable lookup-acceleration tiers composed behind one call.

The paper's clients resolve a key through (at most) two layers: the
Section-5 range cache, then finger routing.  This module adds the learned
index (:mod:`repro.dht.learned`) as a third tier and makes the whole stack
a selectable **acceleration mode**, so experiment rows can hold everything
else fixed while sweeping:

``none``
    every lookup is finger-routed (the no-cache baseline),
``cache``
    the paper's static range cache in front of routing,
``cache+learned``
    static cache, learned-index fallback, routing last,
``cache+adaptive``
    self-sizing cache (:class:`repro.core.lookup_cache.AdaptiveSizer`
    per client, one shared :class:`repro.core.lookup_cache.CacheBudget`)
    in front of routing,
``all``
    adaptive cache + learned index + routing.

Message accounting stays honest across tiers: a correct cache hit costs 0
lookup messages (the client already knows the owner), a stale entry bills
1 wasted probe plus the fallback resolution, a learned hit bills its own
(short) path, a mispredict bills the full routed path plus 1 wasted probe
— exactly the Figure-9 bookkeeping the unaccelerated experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.lookup_cache import (
    DEFAULT_TTL,
    AdaptiveSizer,
    CacheBudget,
    LookupCache,
)
from repro.dht.learned import LearnedIndex
from repro.dht.ring import Ring
from repro.dht.routing import route
from repro.obs.events import EventTracer
from repro.obs.metrics import MetricsRegistry

ACCEL_MODES = ("none", "cache", "cache+learned", "cache+adaptive", "all")

#: Default fleet-wide entry budget for the adaptive modes.
DEFAULT_BUDGET_ENTRIES = 65536


@dataclass(frozen=True)
class AccelLookup:
    """Outcome of one accelerated lookup.

    ``tier`` names the layer that produced the owner: ``"cache"`` (correct
    cached range), ``"learned"`` (learned-index hit), or ``"route"``
    (finger routing — including learned mispredict fallbacks).  ``stale``
    flags lookups that first probed a stale cache entry; their wasted
    probe is already included in ``messages``.
    """

    key: int
    owner: str
    tier: str
    messages: int
    stale: bool = False


class LookupAccelerator:
    """Per-deployment composition of cache, learned index, and routing.

    One accelerator serves many clients: each client gets its own
    :class:`LookupCache` (static or adaptively sized, by mode) while the
    learned index — like the finger table it falls back to — is shared
    ring-wide state.  All configuration is fixed at construction so a
    mode's behavior is a pure function of the lookup stream.
    """

    def __init__(
        self,
        ring: Ring,
        *,
        mode: str = "cache",
        ttl: float = DEFAULT_TTL,
        static_capacity: Optional[int] = None,
        budget_entries: int = DEFAULT_BUDGET_ENTRIES,
        sizer_window: int = 128,
        min_capacity: int = 8,
        max_capacity: int = 4096,
        seed: int = 0,
        learned_min_observations: Optional[int] = None,
        learned_segments: Optional[int] = None,
        learned_max_probe: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
        spans=None,
    ) -> None:
        if mode not in ACCEL_MODES:
            raise ValueError(f"unknown acceleration mode {mode!r}; "
                             f"expected one of {ACCEL_MODES}")
        self.ring = ring
        self.mode = mode
        self.ttl = ttl
        self.static_capacity = static_capacity
        self.use_cache = mode != "none"
        self.adaptive = mode in ("cache+adaptive", "all")
        self.seed = seed
        self._registry = registry
        self._tracer = tracer
        self._spans = spans
        self._sizer_window = sizer_window
        self._min_capacity = min_capacity
        self._max_capacity = max_capacity
        self.budget = CacheBudget(budget_entries) if self.adaptive else None
        self.learned: Optional[LearnedIndex] = None
        if mode in ("cache+learned", "all"):
            learned_kwargs = {}
            if learned_min_observations is not None:
                learned_kwargs["min_observations"] = learned_min_observations
            if learned_segments is not None:
                learned_kwargs["segments"] = learned_segments
            if learned_max_probe is not None:
                learned_kwargs["max_probe"] = learned_max_probe
            self.learned = LearnedIndex(
                ring, seed=seed, registry=registry, tracer=tracer,
                **learned_kwargs,
            )
        self.caches: Dict[str, LookupCache] = {}
        metrics = registry if registry is not None else MetricsRegistry()
        self._c_lookups = metrics.counter("accel.lookups")
        self._c_messages = metrics.counter("accel.messages")
        self._c_stale = metrics.counter("accel.stale_faults")

    def cache_for(self, client: str) -> LookupCache:
        cache = self.caches.get(client)
        if cache is None:
            sizer = None
            if self.adaptive:
                sizer = AdaptiveSizer(
                    window=self._sizer_window,
                    min_capacity=self._min_capacity,
                    max_capacity=self._max_capacity,
                    budget=self.budget,
                    registry=self._registry,
                )
            cache = LookupCache(
                ttl=self.ttl,
                capacity=self.static_capacity if not self.adaptive else None,
                ring=self.ring,
                sizer=sizer,
                registry=self._registry,
                tracer=self._tracer,
            )
            self.caches[client] = cache
        return cache

    def lookup(self, client: str, source: str, key: int,
               now: float = 0.0, phase: Optional[str] = None) -> AccelLookup:
        """Resolve *key* for *client* querying from node *source*.

        Tiers are tried in order (cache → learned → routing) and the
        resolved owner's range is written back into the client's cache, so
        every tier's output trains the tier above it.  *phase* (e.g. the
        accel matrix's ``pre``/``shift``/``post``) is attached to the
        ``accel.lookup`` root span so ``python -m repro.obs trace
        --phase`` can attribute critical-path latency per workload phase.
        """
        self._c_lookups.inc()
        spans = self._spans
        if spans:
            attrs = {"client": client, "mode": self.mode}
            if phase is not None:
                attrs["phase"] = phase
            span = spans.start_trace("accel.lookup", now, **attrs)
        else:
            span = None
        stale = False
        extra = 0
        cache = self.cache_for(client) if self.use_cache else None
        if cache is not None:
            cached = cache.probe(key, now, span)
            if cached is not None:
                owner = self.ring.successor(key)
                if cached == owner:
                    if span:
                        span.annotate(tier="cache", messages=0)
                        spans.finish(span, now)
                    return AccelLookup(key=key, owner=owner, tier="cache",
                                       messages=0)
                # Stale entry: the probed node no longer owns the key.  One
                # wasted message, then fall through to a real resolution.
                cache.invalidate(key, span)
                self._c_stale.inc()
                stale = True
                extra = 1
        if self.learned is not None:
            outcome = self.learned.lookup(source, key)
            result = outcome.result
            tier = "learned" if outcome.hit else "route"
            messages = outcome.messages + extra
            if span:
                span.annotate(predicted=outcome.predicted,
                              learned_hit=outcome.hit)
        else:
            result = route(self.ring, source, key,
                           tracer=spans, parent=span, now=now)
            tier = "route"
            messages = result.messages + extra
        owner = result.owner
        if cache is not None:
            lo, hi = self.ring.range_of(owner)
            cache.insert(lo, hi, owner, now)
        self._c_messages.add(messages)
        if span:
            span.annotate(tier=tier, messages=messages, stale=stale)
            spans.finish(span, now)
        return AccelLookup(key=key, owner=owner, tier=tier,
                           messages=messages, stale=stale)

    def occupancy(self) -> int:
        """Total live cache entries across all clients."""
        return sum(len(cache) for cache in self.caches.values())

    def stats(self) -> dict:
        """JSON-ready summary of the accelerator's current state."""
        capacities = [
            cache.capacity for cache in self.caches.values()
            if cache.capacity is not None
        ]
        ttls = [cache.ttl for cache in self.caches.values()]
        return {
            "mode": self.mode,
            "clients": len(self.caches),
            "occupancy": self.occupancy(),
            "lookups": self._c_lookups.value,
            "messages": self._c_messages.value,
            "stale_faults": self._c_stale.value,
            "capacity_total": sum(capacities) if capacities else None,
            "ttl_min": min(ttls) if ttls else None,
            "ttl_max": max(ttls) if ttls else None,
            "budget_granted": self.budget.granted if self.budget else None,
            "learned": self.learned.stats() if self.learned else None,
        }
