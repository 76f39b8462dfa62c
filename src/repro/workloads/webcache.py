"""DHT-as-web-cache workload (Squirrel-style, Section 10).

Clients fetch URLs through the DHT: a hit reads the cached object; a miss
downloads from the origin and *inserts* it, so insertions and evictions —
not overwrites — dominate.  Cached content not refreshed for a day is
evicted, and a newer origin version replaces the cached copy.  The result
is the paper's stress test: up to 13x the stored volume written in a day
(Table 3), a rapidly shifting key distribution, and the hardest case for
active load balancing (Figure 17).

Keys: with D2, a URL's components are encoded with 2-byte *hash slots*
(footnote 2 — the writer has no parent-directory state); with the
traditional system the URL is hashed.  Objects larger than one block get
consecutive block numbers under the same URL key prefix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.keys import (
    MAX_PATH_LEVELS,
    compose_block_run,
    encode_path_key,
    hash_slot,
    volume_id,
)
from repro.dht.consistent_hashing import hashed_key
from repro.fs.blocks import BLOCK_SIZE

EVICTION_AGE = 86400.0  # cached content unrefreshed for a day is evicted


def url_components(url: str) -> List[str]:
    """Split a canonical (reversed-domain) URL path into components."""
    return [part for part in url.split("/") if part]


class WebCacheKeyScheme:
    """Block keys for cached URLs under either system."""

    def __init__(self, system: str, volume_name: str = "webcache") -> None:
        if system not in ("d2", "traditional"):
            raise ValueError(f"webcache supports 'd2' or 'traditional', not {system!r}")
        self.system = system
        self.volume = volume_id(volume_name)
        self.volume_name = volume_name

    def block_keys(self, url: str, size: int, version: int) -> List[Tuple[int, int]]:
        """(key, block_size) pairs for a cached object of *size* bytes."""
        n_blocks = max(1, -(-size // BLOCK_SIZE))
        sizes = [BLOCK_SIZE] * (n_blocks - 1)
        sizes.append(size - BLOCK_SIZE * (n_blocks - 1) if size > 0 else 0)
        if self.system == "traditional":
            return [
                (hashed_key(f"{self.volume_name}|{url}|b{i}|v{version}"), sizes[i - 1])
                for i in range(1, n_blocks + 1)
            ]
        components = url_components(url)
        prefix = encode_path_key(
            self.volume,
            [hash_slot(c) for c in components[:MAX_PATH_LEVELS]],
            overflow_components=components[MAX_PATH_LEVELS:],
        )
        keys = compose_block_run(prefix, range(1, n_blocks + 1), {}, version)
        return list(zip(keys, sizes))


@dataclass
class _CachedObject:
    version: int
    size: int
    inserted_at: float
    refreshed_at: float
    keys: List[Tuple[int, int]]


@dataclass
class WebCacheStats:
    requests: int = 0
    hits: int = 0
    insertions: int = 0
    replacements: int = 0
    evictions: int = 0


class WebCache:
    """The cache-state machine: which URLs are in the DHT, at what version.

    The caller supplies ``put``/``remove`` callbacks (normally bound to a
    :class:`repro.store.migration.StorageCoordinator`), keeping this class
    independent of the storage backend.
    """

    def __init__(
        self,
        scheme: WebCacheKeyScheme,
        *,
        origin_change_interval: float = 4 * 3600.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.scheme = scheme
        self.origin_change_interval = origin_change_interval
        self._rng = rng if rng is not None else random.Random(0)
        self._cached: Dict[str, _CachedObject] = {}
        self._origin_version: Dict[str, int] = {}
        self._origin_changed_at: Dict[str, float] = {}
        self.stats = WebCacheStats()

    def request(self, url: str, size: int, now: float, put, remove) -> bool:
        """One client fetch; returns True on a cache hit.

        On a miss (or a stale cached version) the object is inserted at the
        current origin version via *put*; the superseded version's blocks
        are removed via *remove*.
        """
        self.stats.requests += 1
        self._advance_origin(url, now)
        origin_version = self._origin_version.setdefault(url, 0)
        cached = self._cached.get(url)
        if cached is not None and cached.version == origin_version:
            cached.refreshed_at = now
            self.stats.hits += 1
            return True
        if cached is not None:
            # Replaced with a newer version fetched by this client.
            for key, _ in cached.keys:
                remove(key)
            self.stats.replacements += 1
        keys = self.scheme.block_keys(url, size, origin_version)
        for key, block_size in keys:
            put(key, block_size)
        self._cached[url] = _CachedObject(
            version=origin_version,
            size=size,
            inserted_at=now,
            refreshed_at=now,
            keys=keys,
        )
        self.stats.insertions += 1
        return False

    def evict_stale(self, now: float, remove) -> int:
        """Evict everything unrefreshed for :data:`EVICTION_AGE` seconds."""
        victims = [
            url
            for url, obj in self._cached.items()
            if now - obj.refreshed_at >= EVICTION_AGE
        ]
        for url in victims:
            for key, _ in self._cached[url].keys:
                remove(key)
            del self._cached[url]
            self.stats.evictions += 1
        return len(victims)

    def _advance_origin(self, url: str, now: float) -> None:
        """Origin content changes over time; each change bumps the version."""
        last = self._origin_changed_at.get(url)
        if last is None:
            self._origin_changed_at[url] = now
            return
        elapsed = now - last
        if elapsed <= 0:
            return
        # Memoryless origin updates: expected one per change interval.
        changes = 0
        remaining = elapsed
        while True:
            step = self._rng.expovariate(1.0 / self.origin_change_interval)
            if step > remaining:
                break
            remaining -= step
            changes += 1
        if changes:
            self._origin_version[url] = self._origin_version.get(url, 0) + changes
            self._origin_changed_at[url] = now
