"""Tests for the Squirrel-style web-cache workload machinery."""

import random

import pytest

from repro.fs.blocks import BLOCK_SIZE
from repro.workloads.webcache import (
    EVICTION_AGE,
    WebCache,
    WebCacheKeyScheme,
    url_components,
)


class Store:
    """Minimal put/remove recorder."""

    def __init__(self):
        self.blocks = {}
        self.puts = 0
        self.removes = 0

    def put(self, key, size):
        self.blocks[key] = size
        self.puts += 1

    def remove(self, key):
        self.blocks.pop(key, None)
        self.removes += 1


def make_cache(system="d2", origin_change_interval=1e12):
    scheme = WebCacheKeyScheme(system)
    return WebCache(scheme, origin_change_interval=origin_change_interval,
                    rng=random.Random(0)), Store()


class TestKeyScheme:
    def test_url_components(self):
        assert url_components("/com.yahoo.www/a/b.html") == ["com.yahoo.www", "a", "b.html"]

    def test_d2_multi_block_objects_contiguous(self):
        scheme = WebCacheKeyScheme("d2")
        keys = [k for k, _ in scheme.block_keys("/com.x.www/big", 3 * BLOCK_SIZE, 0)]
        assert keys == sorted(keys)
        assert len(keys) == 3

    def test_d2_same_site_objects_cluster(self):
        scheme = WebCacheKeyScheme("d2")
        a = scheme.block_keys("/com.x.www/s1/a", 100, 0)[0][0]
        b = scheme.block_keys("/com.x.www/s1/b", 100, 0)[0][0]
        other = scheme.block_keys("/org.unrelated.www/s1/a", 100, 0)[0][0]
        assert abs(a - b) < abs(a - other)

    def test_traditional_blocks_scatter(self):
        scheme = WebCacheKeyScheme("traditional")
        keys = [k for k, _ in scheme.block_keys("/com.x.www/big", 3 * BLOCK_SIZE, 0)]
        assert keys != sorted(keys) or len(set(keys)) == 3

    def test_sizes_sum(self):
        scheme = WebCacheKeyScheme("d2")
        pairs = scheme.block_keys("/com.x.www/o", 2 * BLOCK_SIZE + 7, 0)
        assert sum(size for _, size in pairs) == 2 * BLOCK_SIZE + 7

    def test_version_changes_keys(self):
        scheme = WebCacheKeyScheme("d2")
        k0 = scheme.block_keys("/com.x.www/o", 100, 0)[0][0]
        k1 = scheme.block_keys("/com.x.www/o", 100, 1)[0][0]
        assert k0 != k1

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            WebCacheKeyScheme("chord")


class TestCacheStateMachine:
    def test_miss_then_hit(self):
        cache, store = make_cache()
        assert cache.request("/com.x.www/a", 100, 0.0, store.put, store.remove) is False
        assert cache.request("/com.x.www/a", 100, 1.0, store.put, store.remove) is True
        assert cache.stats.insertions == 1
        assert cache.stats.hits == 1

    def test_insert_puts_blocks(self):
        cache, store = make_cache()
        cache.request("/com.x.www/big", 2 * BLOCK_SIZE, 0.0, store.put, store.remove)
        assert store.puts == 2

    def test_origin_change_replaces(self):
        cache, store = make_cache(origin_change_interval=10.0)
        cache.request("/com.x.www/a", 100, 0.0, store.put, store.remove)
        # Far in the future the origin has certainly changed.
        hit = cache.request("/com.x.www/a", 100, 10_000.0, store.put, store.remove)
        assert hit is False
        assert cache.stats.replacements == 1
        assert store.removes >= 1

    def test_eviction_after_a_day(self):
        cache, store = make_cache()
        cache.request("/com.x.www/a", 100, 0.0, store.put, store.remove)
        evicted = cache.evict_stale(EVICTION_AGE + 1.0, store.remove)
        assert evicted == 1
        # The next request is a miss again.
        assert cache.request("/com.x.www/a", 100, EVICTION_AGE + 2.0,
                             store.put, store.remove) is False

    def test_refresh_postpones_eviction(self):
        cache, store = make_cache()
        cache.request("/com.x.www/a", 100, 0.0, store.put, store.remove)
        cache.request("/com.x.www/a", 100, EVICTION_AGE - 10.0, store.put, store.remove)
        assert cache.evict_stale(EVICTION_AGE + 1.0, store.remove) == 0

    def test_hit_rate(self):
        cache, store = make_cache()
        for _ in range(4):
            cache.request("/com.x.www/a", 100, 0.0, store.put, store.remove)
        assert (cache.stats.hits, cache.stats.requests) == (3, 4)
