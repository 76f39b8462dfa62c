"""Tests for the Karger-Ruhl active load balancer."""

import random

import pytest

from repro.dht.keyspace import KEY_SPACE
from repro.dht.load_balance import (
    KargerRuhlBalancer,
    max_over_mean,
    normalized_std_dev,
)
from repro.dht.ring import Ring


class FakeCoordinator:
    """In-memory coordinator: blocks are plain keys; moves are ring-only."""

    def __init__(self, ring, keys):
        self.ring = ring
        self.keys = sorted(keys)
        self.moves = []

    def primary_load(self, name):
        lo, hi = self.ring.range_of(name)
        if len(self.ring) == 1:
            return len(self.keys)
        from repro.dht.keyspace import in_interval

        return sum(1 for k in self.keys if in_interval(k, lo, hi))

    def primary_keys(self, name):
        """The arc's keys, clockwise from its start (the protocol's contract)."""
        lo, hi = self.ring.range_of(name)
        from repro.dht.keyspace import in_interval

        clockwise = [k for k in self.keys if k > lo] + [k for k in self.keys if k <= lo]
        return [k for k in clockwise if in_interval(k, lo, hi)]

    def execute_move(self, mover, new_id):
        self.ring.change_position(mover, new_id)
        self.moves.append((mover, new_id))


def clustered_setup(n_nodes=12, n_keys=600, seed=1):
    """All keys packed into a tiny arc — the D2 key distribution."""
    rng = random.Random(seed)
    ring = Ring()
    ids = set()
    while len(ids) < n_nodes:
        ids.add(rng.randrange(KEY_SPACE))
    for i, node_id in enumerate(sorted(ids)):
        ring.join(f"n{i}", node_id)
    base = KEY_SPACE // 3
    keys = sorted(rng.randrange(base, base + 2**100) for _ in range(n_keys))
    coordinator = FakeCoordinator(ring, keys)
    return ring, coordinator, rng


class TestTriggerRule:
    def test_no_move_when_balanced(self):
        ring, coordinator, rng = clustered_setup()
        # Spread keys perfectly by construction: one node owns all keys,
        # so first craft a balanced system instead.
        ring2 = Ring()
        step = KEY_SPACE // 4
        for i in range(4):
            ring2.join(f"m{i}", (i + 1) * step - 1)
        keys = [i * (KEY_SPACE // 100) for i in range(100)]
        flat = FakeCoordinator(ring2, keys)
        balancer = KargerRuhlBalancer(ring2, flat, rng=random.Random(0))
        assert balancer.probe("m0") is None
        assert flat.moves == []

    def test_move_triggered_by_imbalance(self):
        ring, coordinator, rng = clustered_setup()
        balancer = KargerRuhlBalancer(ring, coordinator, rng=random.Random(0))
        loaded = max(ring.names(), key=coordinator.primary_load)
        light = next(n for n in ring.names() if coordinator.primary_load(n) == 0)
        record = balancer._maybe_move(light, loaded, now=0.0)
        assert record is not None
        assert record.mover == light
        assert coordinator.moves

    def test_move_halves_target_load(self):
        ring, coordinator, _ = clustered_setup()
        balancer = KargerRuhlBalancer(ring, coordinator, rng=random.Random(0))
        loaded = max(ring.names(), key=coordinator.primary_load)
        before = coordinator.primary_load(loaded)
        light = next(n for n in ring.names() if coordinator.primary_load(n) == 0)
        record = balancer._maybe_move(light, loaded, now=0.0)
        after_target = coordinator.primary_load(loaded)
        after_mover = coordinator.primary_load(light)
        assert after_target + after_mover == before
        assert abs(after_target - after_mover) <= 1

    def test_below_threshold_no_move(self):
        ring2 = Ring()
        ring2.join("a", KEY_SPACE // 2)
        ring2.join("b", KEY_SPACE - 1)
        # a owns 30 keys, b owns 10: ratio 3 < t=4.
        keys = [KEY_SPACE // 2 - 1000 + i for i in range(30)]
        keys += [KEY_SPACE // 2 + 1000 + i for i in range(10)]
        coordinator = FakeCoordinator(ring2, keys)
        balancer = KargerRuhlBalancer(ring2, coordinator, rng=random.Random(0))
        assert balancer._maybe_move("b", "a", 0.0) is None

    def test_threshold_below_two_rejected(self):
        ring, coordinator, _ = clustered_setup()
        with pytest.raises(ValueError):
            KargerRuhlBalancer(ring, coordinator, threshold=1.5)

    def test_tiny_target_not_split(self):
        ring2 = Ring()
        ring2.join("a", KEY_SPACE // 2)
        ring2.join("b", KEY_SPACE - 1)
        coordinator = FakeCoordinator(ring2, [KEY_SPACE // 2 - 5])
        balancer = KargerRuhlBalancer(ring2, coordinator, rng=random.Random(0))
        assert balancer._maybe_move("b", "a", 0.0) is None


class TestConvergence:
    def test_converges_to_constant_factor(self):
        ring, coordinator, _ = clustered_setup(n_nodes=16, n_keys=800)
        balancer = KargerRuhlBalancer(ring, coordinator, rng=random.Random(2))
        balancer.balance_until_stable(max_rounds=300)
        loads = [coordinator.primary_load(n) for n in ring.names()]
        mean = sum(loads) / len(loads)
        # Karger-Ruhl guarantee: max load within a constant factor of mean
        # in steady state with t = 4.
        assert max(loads) <= 4.0 * mean + 1

    def test_stable_after_convergence(self):
        ring, coordinator, _ = clustered_setup(n_nodes=10, n_keys=400)
        balancer = KargerRuhlBalancer(ring, coordinator, rng=random.Random(2))
        balancer.balance_until_stable(max_rounds=300)
        moves_before = len(coordinator.moves)
        balancer.probe_round()
        balancer.probe_round()
        assert len(coordinator.moves) <= moves_before + 1  # at most stragglers

    def test_imbalance_decreases(self):
        ring, coordinator, _ = clustered_setup(n_nodes=16, n_keys=800)
        before = normalized_std_dev(
            [coordinator.primary_load(n) for n in ring.names()]
        )
        balancer = KargerRuhlBalancer(ring, coordinator, rng=random.Random(2))
        balancer.balance_until_stable(max_rounds=300)
        after = normalized_std_dev(
            [coordinator.primary_load(n) for n in ring.names()]
        )
        assert after < before / 2

    def test_stats_recorded(self):
        ring, coordinator, _ = clustered_setup()
        balancer = KargerRuhlBalancer(ring, coordinator, rng=random.Random(2))
        balancer.balance_until_stable(max_rounds=100)
        assert balancer.stats.probes > 0
        assert balancer.stats.triggered == len(balancer.stats.moves)
        assert len(coordinator.moves) == len(balancer.stats.moves)


class TestProbeRound:
    def test_every_node_probes(self):
        ring, coordinator, _ = clustered_setup(n_nodes=8)
        balancer = KargerRuhlBalancer(ring, coordinator, rng=random.Random(0))
        before = balancer.stats.probes
        balancer.probe_round()
        assert balancer.stats.probes == before + 8

    def test_single_node_ring_noop(self):
        ring = Ring()
        ring.join("solo", 5)
        coordinator = FakeCoordinator(ring, [1, 2, 3])
        balancer = KargerRuhlBalancer(ring, coordinator, rng=random.Random(0))
        assert balancer.probe("solo") is None


class TestMetrics:
    def test_normalized_std_dev(self):
        assert normalized_std_dev([5, 5, 5]) == 0.0
        assert normalized_std_dev([]) == 0.0
        assert normalized_std_dev([0, 0]) == 0.0
        assert normalized_std_dev([0, 10]) == pytest.approx(1.0)

    def test_max_over_mean(self):
        assert max_over_mean([5, 5, 5]) == pytest.approx(1.0)
        assert max_over_mean([0, 10]) == pytest.approx(2.0)
        assert max_over_mean([]) == 0.0
