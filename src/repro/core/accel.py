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

from typing import Dict, NamedTuple, Optional

from repro.core.lookup_cache import (
    DEFAULT_TTL,
    AdaptiveSizer,
    CacheBudget,
    LookupCache,
)
from repro.dht.learned import LearnedIndex
from repro.dht.ring import Ring
from repro.dht.routing import route
from repro.obs.metrics import MetricsRegistry

ACCEL_MODES = ("none", "cache", "cache+learned", "cache+adaptive", "all")

#: Entries per client cache: the static modes' bound and the adaptive
#: modes' floor (the size a cache starts at and never shrinks below).
DEFAULT_CAPACITY = 12

#: Fleet-wide entry budget and per-cache ceiling of the adaptive modes, and
#: the probes per retuning of each client's sizer.
BUDGET_ENTRIES = 65536
MAX_CAPACITY = 4096
SIZER_WINDOW = 64

#: Learned-index sizing: training starts after 64 routed lookups, and a
#: prediction walks at most 3 neighbours — a longer probe chain costs more
#: than half a routed path.  Segments are sized to the ring (see
#: :class:`LookupAccelerator`).
LEARNED_MIN_OBSERVATIONS = 64
LEARNED_MAX_PROBE = 3


class AccelLookup(NamedTuple):
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


_outcome = tuple.__new__  # an AccelLookup from its five fields, in no Python frame


class LookupAccelerator:
    """Per-deployment composition of cache, learned index, and routing.

    One accelerator serves many clients: each client gets its own
    :class:`LookupCache` (static or adaptively sized, by mode) while the
    learned index — like the finger table it falls back to — is shared
    ring-wide state.  All configuration is fixed at construction so a
    mode's behavior is a pure function of the lookup stream.

    *capacity* bounds each client's cache in the static modes and is the
    adaptive modes' floor.  The learned index gets one segment per ~4 nodes
    of the ring at construction (at least 8), which keeps every segment
    densely sampled at laptop scale.
    """

    def __init__(
        self,
        ring: Ring,
        *,
        mode: str = "cache",
        ttl: float = DEFAULT_TTL,
        capacity: int = DEFAULT_CAPACITY,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        spans=None,
    ) -> None:
        if mode not in ACCEL_MODES:
            raise ValueError(f"unknown acceleration mode {mode!r}; "
                             f"expected one of {ACCEL_MODES}")
        self.ring = ring
        self.mode = mode
        self.ttl = ttl
        self.capacity = capacity
        self.use_cache = mode != "none"
        self.adaptive = mode in ("cache+adaptive", "all")
        self.seed = seed
        self._registry = registry
        self._spans = spans
        self.budget = CacheBudget(BUDGET_ENTRIES) if self.adaptive else None
        self.learned: Optional[LearnedIndex] = None
        if mode in ("cache+learned", "all"):
            self.learned = LearnedIndex(
                ring, seed=seed, registry=registry,
                segments=max(8, len(ring) // 4),
                min_observations=LEARNED_MIN_OBSERVATIONS,
                max_probe=LEARNED_MAX_PROBE,
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
                    window=SIZER_WINDOW,
                    min_capacity=self.capacity,
                    max_capacity=MAX_CAPACITY,
                    budget=self.budget,
                    registry=self._registry,
                )
            cache = LookupCache(
                ttl=self.ttl,
                capacity=None if self.adaptive else self.capacity,
                ring=self.ring,
                sizer=sizer,
                registry=self._registry,
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
        ``accel.lookup`` root span, so an exported trace says which
        workload phase each lookup ran in.
        """
        self._c_lookups.inc()
        spans = self._spans
        # An unsampled root costs its count alone: attrs only for a kept one.
        span = None if spans is None else spans.start_trace("accel.lookup", now)
        if span is not None:
            if phase is None:
                span.attrs = {"client": client, "mode": self.mode}
            else:
                span.attrs = {"client": client, "mode": self.mode, "phase": phase}
        stale = False
        extra = 0
        cache = None
        if self.use_cache:
            cache = self.caches.get(client)
            if cache is None:
                cache = self.cache_for(client)
            cached = cache.probe(key, now, span)
            if cached is not None:
                owner = self.ring.successor(key)
                if cached == owner:
                    if span is not None:
                        attrs = span.attrs
                        attrs["tier"] = "cache"
                        attrs["messages"] = 0
                        spans.finish(span, now)
                    return _outcome(AccelLookup, (key, owner, "cache", 0, False))
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
            if span is not None:
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
        if span is not None:
            span.annotate(tier=tier, messages=messages, stale=stale)
            spans.finish(span, now)
        return _outcome(AccelLookup, (key, owner, tier, messages, stale))
