"""Tests for consistent hashing."""

import random
from collections import Counter

import pytest

from repro.dht.consistent_hashing import hashed_key, random_node_ids
from repro.dht.keyspace import KEY_SPACE, hash_to_key
from repro.dht.ring import Ring


class TestConsistentHashing:
    def test_hashed_key_uniformity(self):
        """Hashed keys should spread across the whole ring."""
        keys = [hashed_key(f"obj{i}") for i in range(400)]
        buckets = [0] * 8
        for key in keys:
            buckets[key * 8 // KEY_SPACE] += 1
        assert min(buckets) > 20  # crude uniformity check

    def test_hashed_key_is_the_hash_of_the_utf8_name(self):
        rng = random.Random(11)
        names = [f"/u{i}/d{rng.randrange(99)}/f{rng.randrange(10**6)}#{i % 7}" for i in range(2000)]
        names += ["", "é/ü/ß", "\u4e2d\u6587/block", "a" * 300]
        for name in names:
            assert hashed_key(name) == hash_to_key(name.encode("utf-8")), name

    def test_random_node_ids_distinct_sorted(self):
        ids = random_node_ids(100, random.Random(0))
        assert ids == sorted(ids)
        assert len(set(ids)) == 100

    def test_random_ids_balance_roughly(self):
        """Consistent hashing's classic O(log n) imbalance — sanity check."""
        rng = random.Random(5)
        ring = Ring()
        for i, node_id in enumerate(random_node_ids(64, rng)):
            ring.join(f"n{i}", node_id)
        keys = [rng.randrange(KEY_SPACE) for _ in range(6400)]
        loads = Counter(ring.successor(key) for key in keys)
        mean = sum(loads.values()) / len(ring)
        assert mean == pytest.approx(100.0)
        assert max(loads.values()) < 12 * mean  # log-factor spread
