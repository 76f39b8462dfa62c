"""Tests for the learned key-range -> node index (third lookup tier)."""

import random

import pytest

from repro.dht.consistent_hashing import random_node_ids
from repro.dht.keyspace import KEY_SPACE
from repro.dht.learned import SAMPLES_PER_SEGMENT, LearnedIndex
from repro.dht.ring import Ring
from repro.dht.routing import route
from repro.obs.metrics import MetricsRegistry
from tests.oracles import trained


def build_ring(n, seed=0):
    ring = Ring()
    rng = random.Random(seed)
    for i, node_id in enumerate(random_node_ids(n, rng)):
        ring.join(f"n{i}", node_id)
    return ring, rng


def train(index, ring, rng, count):
    for _ in range(count):
        key = rng.randrange(KEY_SPACE)
        index.observe(key, ring.successor_index(key))


class TestTraining:
    def test_untrained_until_min_observations(self):
        ring, rng = build_ring(50)
        index = LearnedIndex(ring, min_observations=64)
        index.refresh()
        train(index, ring, rng, 63)
        assert not trained(index)
        train(index, ring, rng, 1)
        assert trained(index)

    def test_untrained_predict_returns_none(self):
        ring, _ = build_ring(50)
        index = LearnedIndex(ring)
        assert index.predict(123) is None

    def test_reservoir_bounds_training_memory(self):
        ring, rng = build_ring(20)
        index = LearnedIndex(ring, segments=2)
        index.refresh()
        train(index, ring, rng, 1000)
        assert len(index._samples) <= index.sample_capacity == 2 * SAMPLES_PER_SEGMENT

    def test_retrain_fires_at_interval(self):
        ring, rng = build_ring(20)
        index = LearnedIndex(ring, min_observations=10, retrain_interval=100)
        index.refresh()
        train(index, ring, rng, 10 + 250)
        assert index.stats()["retrains"] == 3  # initial fit + 2 refits


class TestPrediction:
    def test_lookup_owner_always_correct(self):
        ring, rng = build_ring(100, seed=2)
        index = LearnedIndex(ring, seed=1)
        index.refresh()
        train(index, ring, rng, 1024)
        for _ in range(500):
            key = rng.randrange(KEY_SPACE)
            outcome = index.lookup("n0", key)
            assert outcome.result.owner == ring.successor(key)

    def test_trained_index_mostly_hits(self):
        ring, rng = build_ring(100, seed=2)
        index = LearnedIndex(ring, seed=1)
        index.refresh()
        train(index, ring, rng, 2048)
        hits = sum(
            1 for _ in range(500)
            if index.lookup("n0", rng.randrange(KEY_SPACE)).hit
        )
        assert hits > 400

    def test_clustered_locality_keys_resolve(self):
        """Regression: a D2-style arc — nodes and keys packed so densely
        that every key is the *same* float fraction of the 2^512 space —
        must still train; only domain-relative big-int features resolve
        it (absolute float features collapse to one point and mispredict
        everything)."""
        rng = random.Random(4)
        base = rng.randrange(KEY_SPACE // 2)
        step = 1 << 64  # far below float53 resolution of the keyspace
        ring = Ring()
        for i in range(32):
            ring.join(f"n{i}", base + i * 8 * step)
        keys = [base + rng.randrange(32 * 8) * step for _ in range(200)]
        assert len({key / KEY_SPACE for key in keys}) == 1  # float-collapsed
        index = LearnedIndex(ring, segments=16, seed=1)
        index.refresh()
        for _ in range(8):
            for key in keys:
                index.observe(key, ring.successor_index(key))
        assert trained(index)
        hits = sum(1 for key in keys if index.lookup("n0", key).hit)
        distinct_owners = len({ring.successor(key) for key in keys})
        assert distinct_owners > 1  # the arc spans several nodes
        assert hits > len(keys) // 2

    def test_single_node_ring(self):
        ring = Ring()
        ring.join("only", 5)
        index = LearnedIndex(ring, min_observations=1)
        index.refresh()
        index.observe(3, 0)
        outcome = index.lookup("only", 900)
        assert outcome.result.owner == "only"


class TestFallback:
    def test_untrained_fallback_byte_identical_to_route(self):
        ring, rng = build_ring(100, seed=3)
        index = LearnedIndex(ring)
        for _ in range(20):
            key = rng.randrange(KEY_SPACE)
            outcome = index.lookup("n7", key)
            assert not outcome.hit
            assert outcome.predicted is None
            assert outcome.extra_messages == 0
            assert outcome.result == route(ring, "n7", key)

    def test_mispredict_bills_one_extra_message(self):
        ring, rng = build_ring(100, seed=3)
        index = LearnedIndex(ring, seed=1, max_probe=0)
        index.refresh()
        train(index, ring, rng, 1024)
        saw_mispredict = False
        for _ in range(500):
            key = rng.randrange(KEY_SPACE)
            outcome = index.lookup("n7", key)
            if outcome.hit or outcome.predicted is None:
                continue
            saw_mispredict = True
            assert outcome.extra_messages == 1
            reference = route(ring, "n7", key)
            assert outcome.result == reference
            assert outcome.messages == reference.messages + 1
        assert saw_mispredict

    def test_max_probe_bounds_hit_paths(self):
        ring, rng = build_ring(100, seed=3)
        index = LearnedIndex(ring, seed=1, max_probe=2)
        index.refresh()
        train(index, ring, rng, 2048)
        for _ in range(300):
            key = rng.randrange(KEY_SPACE)
            outcome = index.lookup("n0", key)
            if outcome.hit:
                # source -> predicted plus at most max_probe forwards.
                assert len(outcome.result.path) <= 2 + 2


class TestInvalidation:
    def test_ring_change_invalidates_model_and_samples(self):
        ring, rng = build_ring(50, seed=5)
        registry = MetricsRegistry()
        index = LearnedIndex(ring, registry=registry)
        index.refresh()
        train(index, ring, rng, 512)
        assert trained(index)
        ring.join("late", 12345)
        assert not trained(index)  # refresh() inside the property
        assert index.stats()["observations"] == 0
        assert registry.counter("dht.learned.invalidate").value == 1

    def test_post_churn_lookups_route_until_retrained(self):
        ring, rng = build_ring(50, seed=5)
        index = LearnedIndex(ring, min_observations=64)
        index.refresh()
        train(index, ring, rng, 512)
        ring.join("late", 12345)
        for _ in range(64):
            key = rng.randrange(KEY_SPACE)
            outcome = index.lookup("n0", key)
            assert not outcome.hit  # predict precedes the observation
            assert outcome.result == route(ring, "n0", key)
        assert trained(index)  # the 64th observation refits

    def test_owner_correct_across_membership_change(self):
        ring, rng = build_ring(50, seed=5)
        index = LearnedIndex(ring)
        index.refresh()
        train(index, ring, rng, 512)
        ring.leave("n10")
        for _ in range(100):
            key = rng.randrange(KEY_SPACE)
            assert index.lookup("n0", key).result.owner == ring.successor(key)


class TestDeterminism:
    def test_identical_streams_train_identical_models(self):
        results = []
        for _ in range(2):
            ring, rng = build_ring(64, seed=6)
            index = LearnedIndex(ring, seed=9)
            index.refresh()
            train(index, ring, rng, 2048)
            probe_rng = random.Random(42)
            outcomes = [
                index.lookup("n1", probe_rng.randrange(KEY_SPACE))
                for _ in range(200)
            ]
            results.append((
                index._domain,
                index._model,
                [(o.hit, o.result.owner, o.messages) for o in outcomes],
            ))
        assert results[0] == results[1]


class TestValidation:
    def test_bad_parameters_rejected(self):
        ring, _ = build_ring(10)
        with pytest.raises(ValueError):
            LearnedIndex(ring, segments=0)
        with pytest.raises(ValueError):
            LearnedIndex(ring, max_probe=-1)

    def test_stats_shape(self):
        ring, rng = build_ring(10)
        index = LearnedIndex(ring)
        stats = index.stats()
        for field in ("trained", "observations", "segments", "segments_fit",
                      "hits", "mispredicts", "retrains", "invalidations"):
            assert field in stats
