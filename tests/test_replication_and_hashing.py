"""Tests for consistent hashing."""

import random
from collections import Counter

import pytest

from repro.dht.consistent_hashing import (
    describe_balance,
    hashed_block_key,
    hashed_key,
    node_id_for_name,
    random_node_ids,
    uniform_spread_ids,
)
from repro.dht.keyspace import KEY_SPACE
from repro.dht.ring import Ring


class TestConsistentHashing:
    def test_hashed_key_uniformity(self):
        """Hashed keys should spread across the whole ring."""
        keys = [hashed_key(f"obj{i}") for i in range(400)]
        buckets = [0] * 8
        for key in keys:
            buckets[key * 8 // KEY_SPACE] += 1
        assert min(buckets) > 20  # crude uniformity check

    def test_block_keys_distinct(self):
        keys = {hashed_block_key("/f", b, v) for b in range(5) for v in range(3)}
        assert len(keys) == 15

    def test_random_node_ids_distinct_sorted(self):
        ids = random_node_ids(100, random.Random(0))
        assert ids == sorted(ids)
        assert len(set(ids)) == 100

    def test_node_id_for_name_deterministic(self):
        assert node_id_for_name("a") == node_id_for_name("a")
        assert node_id_for_name("a") != node_id_for_name("b")

    def test_uniform_spread(self):
        ids = uniform_spread_ids(4)
        gaps = [b - a for a, b in zip(ids, ids[1:])]
        assert len(set(gaps)) == 1

    def test_uniform_spread_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            uniform_spread_ids(0)

    def test_describe_balance(self):
        stats = describe_balance([10, 10, 10, 10])
        assert stats["nsd"] == 0.0
        assert stats["max"] == 10
        assert describe_balance([])["count"] == 0

    def test_random_ids_balance_roughly(self):
        """Consistent hashing's classic O(log n) imbalance — sanity check."""
        rng = random.Random(5)
        ring = Ring()
        for i, node_id in enumerate(random_node_ids(64, rng)):
            ring.join(f"n{i}", node_id)
        keys = [rng.randrange(KEY_SPACE) for _ in range(6400)]
        loads = Counter(ring.successor(key) for key in keys)
        stats = describe_balance([loads[name] for name in ring.names()])
        assert stats["mean"] == pytest.approx(100.0)
        assert stats["max"] < 12 * stats["mean"]  # log-factor spread
