"""Range-based DHT lookup cache (Section 5).

Each lookup result tells the client not just *which node* owns the key but
*which key range* that node owns.  The client caches ``(range → node)``
entries; any later key falling in a cached range skips the DHT lookup
entirely.  Locality makes this powerful in D2: a user's next key is very
likely inside a range they just learned.  Traditional DHT clients use the
same cache (the comparison is apples-to-apples) but their uniformly-random
keys rarely revisit a cached range until the cache holds ~all nodes.

Staleness is safe — a request served by a stale entry misses at the target
and falls back to a normal lookup (correctness is unaffected; only latency
suffers) — so entries simply expire after a TTL sized to the observed churn
rate (the paper uses 1.25 h, from PlanetLab's leave/join rate).

Beyond the paper's static design this module adds two orthogonal upgrades
(see docs/performance.md, "Acceleration modes"):

* **membership-epoch checks** — with a *ring* attached, an entry inserted
  under one membership generation is re-validated when probed under a
  newer one: if the node it points to has left the ring entirely (a crash
  under dynamic membership, PR 6), the entry is evicted instead of served.
  Position changes keep the name alive, so balancing-only churn still
  relies on the paper's TTL/stale-fault path and existing rows are
  unchanged.
* **bounded capacity + self-sizing** — ``capacity`` bounds the entry
  count (the nearest-to-expiry entry is evicted first, deterministically);
  an attached :class:`AdaptiveSizer` grows/shrinks capacity and TTL from
  the observed hit/staleness rates inside a global :class:`CacheBudget`.
  Both default off, so the static paper configuration stays the baseline.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple

from repro.dht.keyspace import KEY_SPACE, in_interval
from repro.obs.metrics import MetricsRegistry

DEFAULT_TTL = 4500.0  # 1.25 hours, per Section 5

_expiry = attrgetter("expires_at")


@dataclass
class CacheEntry:
    lo: int
    hi: int
    node: str
    expires_at: float
    version: int = -1  # ring membership generation at insert (-1: unversioned)

    def covers(self, key: int) -> bool:
        return in_interval(key, self.lo, self.hi)


class LookupCacheStats:
    """Per-cache lookup statistics: a read-only view over metric counters.

    Each of :attr:`FIELDS` reads a :class:`~repro.obs.metrics.Counter` of
    the registry (``lookup.<field>``), which the cache bumps directly — so
    the same numbers flow into metric snapshots with no second bookkeeping
    path.

    ``evictions`` counts TTL-expiry drops (the original meaning);
    ``capacity_evictions`` counts drops forced by a full bounded cache and
    ``membership_evictions`` counts entries dropped because the node they
    named left the ring — three distinct signals the adaptive sizer and
    the runner reports keep separate.
    """

    FIELDS = ("hits", "misses", "stale_hits", "inserts", "evictions",
              "capacity_evictions", "membership_evictions")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: registry.counter(f"lookup.{name}") for name in self.FIELDS
        }

    def __getattr__(self, name: str) -> int:
        if name in self.FIELDS:
            return self._counters[name].value
        raise AttributeError(name)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.misses / self.lookups

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LookupCacheStats):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)}" for f in self.FIELDS)
        return f"LookupCacheStats({fields})"


class LookupCache:
    """One client's cache of ``(key range → node)`` entries with TTL expiry.

    Entries are kept sorted by range end, and a probe bisects that order:
    it examines the entries ending at or after the key for as long as one
    of them can start before it, plus the few arcs that wrap.  Ranges may
    overlap transiently after churn, in which case the freshest entry
    (latest ``expires_at``) wins.  With a shared *registry*, every probe
    also feeds the deployment-wide aggregate counters (``lookup.hits``
    etc.) — each cache's own :class:`LookupCacheStats` stays per-client.

    Optional knobs (all default to the paper's static design):

    * *ring* — entries remember the ring's membership version at insert;
      a probe under a newer version first checks the cached node is still
      a member and evicts the entry if it crashed/left (``membership_evictions``).
    * *capacity* — bounds the entry count; inserting into a full cache
      evicts the entry nearest to expiry (ties broken by range end, so
      eviction order is deterministic).
    * *sizer* — an :class:`AdaptiveSizer` notified of every probe outcome
      and capacity eviction; it retunes ``capacity``/``ttl`` in place.
    """

    def __init__(
        self,
        ttl: float = DEFAULT_TTL,
        *,
        capacity: Optional[int] = None,
        ring=None,
        sizer: Optional["AdaptiveSizer"] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.ttl = ttl
        self.capacity = capacity
        self._ring = ring
        self._entries: List[CacheEntry] = []  # sorted by hi
        self._his: List[int] = []
        self._reindex()
        self.stats = LookupCacheStats()
        self._shared = LookupCacheStats(registry) if registry is not None else None
        # What a live hit adds one to, held here so that a probe answers it
        # with no further Python call (a counter is one attribute add).
        self._hit_counters = tuple(
            stats._counters["hits"] for stats in (self.stats, self._shared) if stats is not None
        )
        self._sizer = None
        if sizer is not None:
            self.attach_sizer(sizer)

    def __len__(self) -> int:
        return len(self._entries)

    def attach_sizer(self, sizer: "AdaptiveSizer") -> None:
        self._sizer = sizer
        sizer.attach(self)

    def _count(self, field: str, amount: int = 1) -> None:
        self.stats._counters[field].add(amount)
        if self._shared is not None:
            self._shared._counters[field].add(amount)

    def probe(self, key: int, now: float, span=None) -> Optional[str]:
        """Node caching says owns *key*, or None on a miss.

        An expired entry is dropped on sight, so it can never mask a live
        overlapping entry at the same range end.  With a *span* (a live
        :class:`repro.obs.spans.Span`), the outcome is annotated onto it —
        a null/absent span costs one truthiness check.

        When no arc that wraps covers *key* and at most one entry from the
        bisect point on starts before it, that entry is the only one that
        can, and a live hit is answered with no Python call but the
        sizer's.  Arcs overlap only for a while after churn, and the one
        arc that wraps covers only the keys above the ring's highest node
        or up to its lowest: on ``accel-shift`` every probe but one in
        20 000 (seed 12) takes this path.  Other probes ask :meth:`_lookup`.
        """
        for arc in self._wrapping:  # lo >= hi: it may cover keys on either side
            if key > arc.lo or key <= arc.hi:
                entry = self._lookup(key, now)
                break
        else:
            # A covering arc that does not wrap ends at or after *key* and
            # starts before it: it sits from the bisect point on.
            min_lo = self._min_lo
            index = bisect.bisect_left(self._his, key)
            if min_lo[index] >= key:
                entry = None
            elif min_lo[index + 1] < key:
                entry = self._lookup(key, now)  # overlapping arcs: the freshest wins
            else:
                entry = self._entries[index]
                ring = self._ring
                # :meth:`_lookup`'s test, inlined on this path alone.
                if entry.expires_at <= now or (ring is not None and entry.version != ring.version):
                    entry = self._settle(entry, now)
        if entry is not None:
            for counter in self._hit_counters:
                counter._value += 1
            if self._sizer is not None:
                self._sizer.record(self, "hit")
            if span:
                attrs = span.attrs
                attrs["cache"] = "hit"
                attrs["node"] = entry.node
            return entry.node
        self._count("misses")
        if self._sizer is not None:
            self._sizer.record(self, "miss")
        if span:
            span.annotate(cache="miss")
        return None

    def _lookup(self, key: int, now: float) -> Optional[CacheEntry]:
        """The live entry that answers a probe of *key*, or None; the hit
        or miss is the caller's to count, evictions are counted here.  An
        entry found expired, or inserted under an older membership, is
        settled first."""
        entry = self._find(key)
        if entry is not None:
            ring = self._ring
            if entry.expires_at <= now or (ring is not None and entry.version != ring.version):
                entry = self._settle(entry, now)
        return entry

    def _settle(self, entry: CacheEntry, now: float) -> Optional[CacheEntry]:
        """*entry*, found for a probe at *now* but expired or inserted under
        an older membership: dropped and counted (None), or revalidated."""
        if entry.expires_at > now:
            # Membership moved since insert.  A node that changed position
            # keeps its name; only a node that left the ring outright
            # (crash/leave under dynamic membership) makes the entry
            # unservable.
            if entry.node not in self._ring:
                self._remove_entry(entry)
                self._count("membership_evictions")
                return None
            entry.version = self._ring.version
            return entry
        self._remove_entry(entry)
        self._count("evictions")
        return None

    def warm(self, keys: Sequence[int], now: float, ring) -> None:
        """Look up *keys* in order at *now*, as a client's untimed reads do.

        Each key is probed and then resolved on *ring*; a miss, or a hit
        naming another node than the owner, caches the owner's arc.  A key
        inside the arc of the entry that answered the key before it (a
        hit, or the entry just inserted) counts as a hit with no probe and
        no ring lookup, when that is provably what the probe and the ring
        would say: the entry's arc is its node's current range and no
        other entry overlaps it.  The ring cannot move inside one call.
        Hits and misses are counted once a call; with a
        sizer attached, which sees each outcome in order, every key is
        probed on its own.  The per-key form is ``warm_access`` in
        ``tests/oracles.py``; both leave the same entries, statistics and
        event counts.
        """
        successor, range_of = ring.successor, ring.range_of
        if self._sizer is not None:
            for key in keys:
                owner = successor(key)
                if self.probe(key, now) != owner:
                    self.insert(*range_of(owner), owner, now)
            return
        hits = misses = 0
        answered: Optional[CacheEntry] = None
        alone: Optional[bool] = None  # whether *answered* provably answers its whole arc
        for key in keys:
            if answered is not None and answered.lo < key <= answered.hi:
                if alone is None:
                    alone = self._answers_arc(answered, ring)
                if alone:
                    hits += 1
                    continue
            entry = self._lookup(key, now)
            owner = successor(key)
            if entry is None:
                misses += 1
            else:
                hits += 1
                if entry.node == owner:
                    answered, alone = entry, None
                    continue
            answered, alone = self.insert(*range_of(owner), owner, now), None
        for field, count in (("hits", hits), ("misses", misses)):
            if count:
                self._count(field, count)

    def _answers_arc(self, entry: CacheEntry, ring) -> bool:
        """Whether a probe of any key in *entry*'s arc finds *entry*, and
        the ring's owner of that key is its node.

        Only a live entry whose arc does not wrap and is its node's current
        range qualifies, and only while no other entry, live or not,
        overlaps the arc: the one ending just before it ends at or before
        its start, none ending after it starts before its end (the suffix
        minimum), and no wrapping arc reaches into it.
        """
        lo, hi = entry.lo, entry.hi
        if lo >= hi or ring.range_of(entry.node) != (lo, hi):
            return False
        his = self._his
        index = bisect.bisect_left(his, hi)
        if (index and his[index - 1] > lo) or self._min_lo[index + 1] < hi:
            return False
        return not any(other.hi > lo or other.lo < hi for other in self._wrapping)

    def insert(self, lo: int, hi: int, node: str, now: float) -> CacheEntry:
        """Cache a lookup result: *node* owns the arc ``(lo, hi]``.

        Any older entry with the same range end is replaced (the ring moved
        under us).  A bounded cache at capacity first evicts the entry
        closest to expiry.  Returns the new entry.
        """
        self._drop_expired(now)
        version = self._ring.version if self._ring is not None else -1
        entry = CacheEntry(lo, hi, node, now + self.ttl, version)
        index = bisect.bisect_left(self._his, hi)
        gone: Optional[CacheEntry] = None
        if index < len(self._his) and self._his[index] == hi:
            gone, self._entries[index] = self._entries[index], entry
        else:
            if self.capacity is not None and len(self._entries) >= self.capacity:
                self._evict_for_capacity()
                index = bisect.bisect_left(self._his, hi)
            self._his.insert(index, hi)
            self._entries.insert(index, entry)
            # Until patched, the new slot holds the suffix minimum from here.
            self._min_lo.insert(index, self._min_lo[index])
        self._patch(index, entry, gone)
        self._count("inserts")
        return entry

    def _evict_for_capacity(self) -> None:
        # The entry nearest to expiry; entries are in range-end order, so
        # the first of equally near ones has the lowest range end.
        victim = min(self._entries, key=_expiry)
        self._remove_entry(victim)
        self._count("capacity_evictions")
        if self._sizer is not None:
            self._sizer.record(self, "capacity_eviction")

    def invalidate(self, key: int, span=None) -> None:
        """Drop the entry covering *key* (used after a stale-entry fault)."""
        entry = self._find(key)
        if entry is not None:
            self._remove_entry(entry)
            self._count("stale_hits")
            if self._sizer is not None:
                self._sizer.record(self, "stale")
            if span:
                span.annotate(cache="stale", stale_node=entry.node)

    def _reindex(self) -> None:
        """Build what :meth:`_find` reads from scratch, after many entries
        changed at once (an expiry sweep); single changes go to
        :meth:`_patch`.

        ``_min_lo[i]`` is the lowest range start among ``_entries[i:]``
        (``KEY_SPACE`` past the end); ``_wrapping`` holds the entries whose
        arc wraps past zero or is the full ring (``lo >= hi``), in order;
        ``_first_expiry`` is when the first entry lapses (never, if empty).
        """
        lowest, first_expiry = KEY_SPACE, math.inf
        min_lo, wrapping = [lowest], []
        for entry in reversed(self._entries):
            if entry.lo < lowest:
                lowest = entry.lo
            if entry.lo >= entry.hi:
                wrapping.append(entry)
            if entry.expires_at < first_expiry:
                first_expiry = entry.expires_at
            min_lo.append(lowest)
        min_lo.reverse()
        wrapping.reverse()
        self._min_lo, self._wrapping, self._first_expiry = min_lo, wrapping, first_expiry

    def _patch(self, start: int, new: Optional[CacheEntry],
               gone: Optional[CacheEntry]) -> None:
        """Patch the index after one entry changed: *new* came (a fresh
        slot, or over *gone*), *gone* left, or both.

        The suffix minima are recomputed from *start* back to the first one
        that comes out unchanged — one or two while arcs are disjoint.  The
        wrapping list is rebuilt only when a wrapping entry came or went,
        and the first expiry only when *gone* may have held it.
        """
        entries, min_lo = self._entries, self._min_lo
        while start >= 0:
            lo, after = entries[start].lo, min_lo[start + 1]
            lowest = lo if lo < after else after
            if min_lo[start] == lowest:
                break
            min_lo[start] = lowest
            start -= 1
        if (new is not None and new.lo >= new.hi) or (gone is not None and gone.lo >= gone.hi):
            self._wrapping = [entry for entry in entries if entry.lo >= entry.hi]
        if new is not None and new.expires_at < self._first_expiry:
            self._first_expiry = new.expires_at
        if gone is not None and gone.expires_at <= self._first_expiry:
            self._first_expiry = min(map(_expiry, entries), default=math.inf)

    def _find(self, key: int) -> Optional[CacheEntry]:
        """Freshest entry covering *key*, expired or not.

        The latest ``expires_at`` wins, so live entries always beat expired
        ones; equally fresh entries tie to the lowest range end.  An arc
        that does not wrap covers *key* exactly when it ends at or after
        *key* and starts before it: those entries sit from the bisect point
        on, and the walk over them stops where no later entry starts below
        *key* — after one or two entries while arcs are disjoint, further
        only across arcs that overlap.  A wrapping arc can cover *key* from
        either side of that point, so the few of them are tested directly.
        """
        best: Optional[CacheEntry] = None
        for entry in self._wrapping:  # lo >= hi; lo == hi passes for any key
            if (key > entry.lo or key <= entry.hi) and (
                best is None or entry.expires_at > best.expires_at
            ):
                best = entry
        entries, min_lo = self._entries, self._min_lo
        index = bisect.bisect_left(self._his, key)
        while min_lo[index] < key:
            entry = entries[index]
            index += 1
            # At or past the bisect point a wrapping arc has hi >= key, so
            # lo < key selects exactly the covering arcs that do not wrap.
            if entry.lo < key and (
                best is None
                or entry.expires_at > best.expires_at
                or (entry.expires_at == best.expires_at and entry.hi < best.hi)
            ):
                best = entry
        return best

    def _remove_entry(self, entry: CacheEntry) -> None:
        index = bisect.bisect_left(self._his, entry.hi)  # range ends are unique
        del self._entries[index]
        del self._his[index]
        del self._min_lo[index]
        self._patch(index - 1, None, entry)

    def _drop_expired(self, now: float) -> None:
        if now < self._first_expiry:
            return  # nothing has lapsed: the usual case, no copy made
        live = [(h, e) for h, e in zip(self._his, self._entries) if e.expires_at > now]
        dropped = len(self._entries) - len(live)
        if dropped:
            self._count("evictions", dropped)
            self._his = [h for h, _ in live]
            self._entries = [e for _, e in live]
            self._reindex()

    def entries(self) -> Tuple[CacheEntry, ...]:
        return tuple(self._entries)


class CacheBudget:
    """Global entry budget shared by every adaptively-sized cache.

    Capacity growth is a *request*: the budget grants as much of the asked
    delta as remains, so the fleet of per-client caches can never exceed
    ``max_entries`` combined even when every client's controller wants to
    grow at once.  Shrinks release entries back for other caches to claim.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.granted = 0

    @property
    def remaining(self) -> int:
        return self.max_entries - self.granted

    def request(self, want: int) -> int:
        """Grant up to *want* additional entries; returns the grant (>= 0)."""
        grant = max(0, min(want, self.remaining))
        self.granted += grant
        return grant

    def release(self, count: int) -> None:
        self.granted -= min(count, self.granted)


class AdaptiveSizer:
    """Per-client controller retuning a cache's capacity and TTL online.

    Every ``window`` probes it looks at the window's hit rate, staleness
    rate, and capacity-eviction pressure and applies one bounded move:

    * thrash (low hit rate **and** capacity evictions) → double capacity,
      clipped to ``max_capacity`` and to whatever the shared
      :class:`CacheBudget` still grants;
    * staleness above ``stale_tolerance`` → halve the TTL (churn is
      outpacing the paper's static 1.25 h guess), floored at ``min_ttl``;
    * healthy hit rate with negligible staleness → stretch the TTL back
      (×1.5, capped) and return capacity the working set no longer uses.

    All arithmetic is deterministic — the controller is a pure function of
    the probe outcome sequence, so accelerated replays stay byte-stable
    across serial and ``--jobs N`` runs.
    """

    OUTCOMES = ("hit", "miss", "stale", "capacity_eviction")

    def __init__(
        self,
        *,
        window: int = 128,
        target_hit_rate: float = 0.85,
        stale_tolerance: float = 0.02,
        min_capacity: int = 8,
        max_capacity: int = 4096,
        min_ttl: float = 60.0,
        max_ttl: float = 4 * DEFAULT_TTL,
        budget: Optional[CacheBudget] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if min_capacity <= 0 or min_capacity > max_capacity:
            raise ValueError("need 0 < min_capacity <= max_capacity")
        self.window = window
        self.target_hit_rate = target_hit_rate
        self.stale_tolerance = stale_tolerance
        self.min_capacity = min_capacity
        self.max_capacity = max_capacity
        self.min_ttl = min_ttl
        self.max_ttl = max_ttl
        self.budget = budget
        self._registry = registry
        self._window_counts = dict.fromkeys(self.OUTCOMES, 0)
        self.adaptations = {"grow": 0, "shrink": 0, "ttl_up": 0, "ttl_down": 0}

    def attach(self, cache: LookupCache) -> None:
        """Give *cache* its starting bounded capacity (budget permitting)."""
        if cache.capacity is None:
            cache.capacity = self.min_capacity
        if self.budget is not None:
            cache.capacity = max(1, self.budget.request(cache.capacity))

    def record(self, cache: LookupCache, outcome: str) -> None:
        self._window_counts[outcome] += 1
        probes = self._window_counts["hit"] + self._window_counts["miss"]
        if probes >= self.window:
            self._adapt(cache)
            self._window_counts = dict.fromkeys(self.OUTCOMES, 0)

    def _adapt(self, cache: LookupCache) -> None:
        counts = self._window_counts
        probes = counts["hit"] + counts["miss"]
        hit_rate = counts["hit"] / probes
        stale_rate = counts["stale"] / probes
        if stale_rate > self.stale_tolerance:
            new_ttl = max(self.min_ttl, cache.ttl / 2.0)
            if new_ttl != cache.ttl:
                cache.ttl = new_ttl
                self._note("ttl_down")
        elif hit_rate >= self.target_hit_rate and stale_rate == 0.0:
            new_ttl = min(self.max_ttl, cache.ttl * 1.5)
            if new_ttl != cache.ttl:
                cache.ttl = new_ttl
                self._note("ttl_up")
        capacity = cache.capacity if cache.capacity is not None else self.min_capacity
        if hit_rate < self.target_hit_rate and counts["capacity_eviction"] > 0:
            want = min(self.max_capacity, capacity * 2) - capacity
            if want > 0:
                grant = self.budget.request(want) if self.budget is not None else want
                if grant > 0:
                    cache.capacity = capacity + grant
                    self._note("grow")
        elif (
            hit_rate >= self.target_hit_rate
            and capacity > self.min_capacity
            and len(cache) <= capacity // 4
        ):
            new_capacity = max(self.min_capacity, max(len(cache) * 2, capacity // 2))
            if new_capacity < capacity:
                if self.budget is not None:
                    self.budget.release(capacity - new_capacity)
                cache.capacity = new_capacity
                self._note("shrink")

    def _note(self, move: str) -> None:
        self.adaptations[move] += 1
        if self._registry is not None:
            self._registry.counter(f"lookup.adapt.{move}").inc()
