"""Tests for the erasure-coding redundancy model."""

import random

import pytest

from repro.dht.consistent_hashing import random_node_ids
from repro.dht.ring import Ring
from repro.store.erasure import ErasureConfig, group_availability_probability
from tests.oracles import (
    equivalent_configs,
    fragment_holders,
    fragment_size,
    key_available_erasure,
    task_availability_probability,
)


@pytest.fixture
def ring():
    ring = Ring()
    rng = random.Random(8)
    for i, node_id in enumerate(random_node_ids(12, rng)):
        ring.join(f"n{i}", node_id)
    return ring


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ErasureConfig(total=2, needed=3)
        with pytest.raises(ValueError):
            ErasureConfig(total=2, needed=0)

    def test_storage_overhead(self):
        assert ErasureConfig(6, 2).storage_overhead == pytest.approx(3.0)
        assert ErasureConfig.replication(3).storage_overhead == pytest.approx(3.0)

    def test_replication_is_degenerate_code(self):
        config = ErasureConfig.replication(4)
        assert (config.total, config.needed) == (4, 1)

    def test_fragment_size(self):
        assert fragment_size(ErasureConfig(6, 2), 8192) == 4096
        assert fragment_size(ErasureConfig(6, 3), 8192) == 2731  # ceil


class TestAvailability:
    def test_holders_are_successors(self, ring):
        config = ErasureConfig(4, 2)
        assert fragment_holders(ring, 42, config) == ring.successors(42, 4)

    def test_needs_k_fragments(self, ring):
        config = ErasureConfig(4, 2)
        holders = fragment_holders(ring, 42, config)
        assert key_available_erasure(ring, 42, config, alive=set(holders[:2]))
        assert not key_available_erasure(ring, 42, config, alive={holders[0]})

    def test_replication_needs_one(self, ring):
        config = ErasureConfig.replication(3)
        holders = fragment_holders(ring, 42, config)
        assert key_available_erasure(ring, 42, config, alive={holders[2]})
        assert not key_available_erasure(ring, 42, config, alive=set())


class TestAnalytics:
    def test_replication_probability(self):
        config = ErasureConfig.replication(3)
        # 1 - (1-p)^3 for p = 0.9.
        assert group_availability_probability(config, 0.9) == pytest.approx(0.999)

    def test_erasure_beats_replication_at_same_cost(self):
        p = 0.9
        replication = group_availability_probability(ErasureConfig.replication(3), p)
        coded = group_availability_probability(ErasureConfig(6, 2), p)
        assert coded > replication

    def test_task_probability_compounds(self):
        config = ErasureConfig.replication(3)
        single = group_availability_probability(config, 0.9)
        assert task_availability_probability(config, 0.9, groups=4) == pytest.approx(
            single**4
        )

    def test_fewer_groups_dominate(self):
        """The paper's core argument, analytically: 2 groups beat 20."""
        config = ErasureConfig.replication(3)
        d2 = task_availability_probability(config, 0.95, groups=2)
        trad = task_availability_probability(config, 0.95, groups=20)
        assert d2 > trad

    def test_probability_bounds(self):
        config = ErasureConfig(5, 3)
        assert group_availability_probability(config, 0.0) == 0.0
        assert group_availability_probability(config, 1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            group_availability_probability(config, 1.5)

    def test_monte_carlo_matches_analytic(self, ring):
        """Simulated fragment availability converges to the formula."""
        rng = random.Random(5)
        config = ErasureConfig(5, 2)
        p = 0.8
        trials = 4000
        successes = 0
        holders = fragment_holders(ring, 42, config)
        for _ in range(trials):
            alive = {h for h in holders if rng.random() < p}
            successes += key_available_erasure(ring, 42, config, alive)
        observed = successes / trials
        expected = group_availability_probability(config, p)
        assert observed == pytest.approx(expected, abs=0.03)


class TestEquivalentConfigs:
    def test_budget_filters(self):
        configs = equivalent_configs(3.0, max_total=6)
        assert ErasureConfig(6, 2) in configs
        assert ErasureConfig(3, 1) in configs
        assert all(c.storage_overhead <= 3.0 + 1e-9 for c in configs)

    def test_tight_budget(self):
        configs = equivalent_configs(1.0, max_total=4)
        assert all(c.total == c.needed for c in configs)
