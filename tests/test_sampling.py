"""Tests for Mercury-style random-walk node sampling."""

import random
from collections import Counter

import pytest

from repro.dht.keyspace import KEY_SPACE
from repro.dht.ring import Ring
from repro.dht.sampling import random_walk_sample, sample_other


def empirical_distribution(ring, rng, samples):
    """How often each node is the end of a walk from a random start."""
    names = list(ring.names())
    counts = Counter(dict.fromkeys(names, 0))
    for _ in range(samples):
        counts[random_walk_sample(ring, names[rng.randrange(len(names))], rng)] += 1
    return counts


def uniform_ring(n):
    ring = Ring()
    step = KEY_SPACE // n
    for i in range(n):
        ring.join(f"n{i}", (i + 1) * step - 1)
    return ring


def skewed_ring(n):
    """Node arcs spanning ~6 orders of magnitude (post-balancing shape)."""
    ring = Ring()
    position = 0
    for i in range(n):
        position += 10 ** (3 + (i % 6))
        ring.join(f"n{i}", position)
    return ring


class TestBasics:
    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            random_walk_sample(Ring(), "x", random.Random(0))

    def test_single_node(self):
        ring = Ring()
        ring.join("solo", 5)
        assert random_walk_sample(ring, "solo", random.Random(0)) == "solo"

    def test_sample_in_ring(self):
        ring = uniform_ring(16)
        sample = random_walk_sample(ring, "n0", random.Random(1))
        assert sample in ring

    def test_sample_other_never_returns_prober(self):
        ring = uniform_ring(4)
        rng = random.Random(2)
        for _ in range(50):
            assert sample_other(ring, "n0", rng) != "n0"

    def test_two_node_fallback(self):
        ring = Ring()
        ring.join("a", 10)
        ring.join("b", 20)
        assert sample_other(ring, "a", random.Random(0)) == "b"


class TestUniformity:
    def test_uniform_ring_near_uniform(self):
        ring = uniform_ring(20)
        counts = empirical_distribution(ring, random.Random(3), samples=3000)
        expected = 3000 / 20
        for count in counts.values():
            assert 0.5 * expected <= count <= 1.7 * expected

    def test_skewed_ring_stays_near_uniform(self):
        """The MH correction is what makes this pass: naive successor-of-
        random-point sampling would hit the widest arc ~1e6x more often."""
        ring = skewed_ring(24)
        counts = empirical_distribution(ring, random.Random(4), samples=4000)
        expected = 4000 / 24
        assert max(counts.values()) <= 3.0 * expected
        assert min(counts.values()) >= 0.2 * expected

    def test_naive_sampling_would_fail(self):
        """Sanity check on the premise: arc-proportional hits are wildly
        non-uniform on the skewed ring."""
        ring = skewed_ring(24)
        rng = random.Random(5)
        from collections import Counter

        counts = Counter(
            ring.successor(rng.randrange(KEY_SPACE)) for _ in range(4000)
        )
        assert max(counts.values()) > 3500  # one node absorbs nearly all


class TestBalancerIntegration:
    def test_balancer_converges_with_random_walk(self):
        from repro.dht.load_balance import KargerRuhlBalancer
        from repro.sim.engine import Simulator
        from repro.store.migration import StorageCoordinator

        rng = random.Random(6)
        ring = Ring()
        ids = set()
        while len(ids) < 12:
            ids.add(rng.randrange(KEY_SPACE))
        for i, node_id in enumerate(sorted(ids)):
            ring.join(f"n{i}", node_id)
        store = StorageCoordinator(ring, Simulator())
        base = rng.randrange(KEY_SPACE)
        for _ in range(300):
            store.write((base + rng.randrange(2**120)) % KEY_SPACE, 1)
        balancer = KargerRuhlBalancer(
            ring, store, rng=rng, sampling="random-walk"
        )
        balancer.balance_until_stable(max_rounds=250)
        loads = list(store.primary_loads().values())
        mean = sum(loads) / len(loads)
        assert max(loads) <= 4.0 * mean + 1

    def test_unknown_sampling_rejected(self):
        from repro.dht.load_balance import KargerRuhlBalancer
        from repro.sim.engine import Simulator
        from repro.store.migration import StorageCoordinator

        ring = uniform_ring(4)
        store = StorageCoordinator(ring, Simulator())
        with pytest.raises(ValueError):
            KargerRuhlBalancer(ring, store, sampling="gossip")
