"""Tests for the composed lookup-acceleration tiers (cache/learned/route)."""

import random

import pytest

from repro.core.accel import ACCEL_MODES, LookupAccelerator
from repro.core.lookup_cache import CacheBudget
from repro.core.system import build_deployment
from repro.dht.consistent_hashing import random_node_ids
from repro.dht.keyspace import KEY_SPACE
from repro.dht.ring import Ring
from repro.dht.routing import route
from repro.obs.metrics import MetricsRegistry


def build_ring(n, seed=0):
    ring = Ring()
    rng = random.Random(seed)
    for i, node_id in enumerate(random_node_ids(n, rng)):
        ring.join(f"n{i}", node_id)
    return ring, rng


class TestModes:
    def test_unknown_mode_rejected(self):
        ring, _ = build_ring(8)
        with pytest.raises(ValueError):
            LookupAccelerator(ring, mode="turbo")

    def test_mode_wiring(self):
        ring, _ = build_ring(8)
        for mode in ACCEL_MODES:
            accel = LookupAccelerator(ring, mode=mode)
            assert accel.use_cache == (mode != "none")
            assert accel.adaptive == (mode in ("cache+adaptive", "all"))
            assert (accel.learned is not None) == (
                mode in ("cache+learned", "all")
            )
            assert (accel.budget is not None) == accel.adaptive

    def test_none_mode_is_plain_routing(self):
        ring, rng = build_ring(32)
        accel = LookupAccelerator(ring, mode="none")
        for _ in range(50):
            key = rng.randrange(KEY_SPACE)
            outcome = accel.lookup("c1", "n0", key)
            reference = route(ring, "n0", key)
            assert outcome.tier == "route"
            assert outcome.owner == reference.owner
            assert outcome.messages == reference.messages
        assert not accel.caches  # no cache objects materialize


class TestCacheTier:
    def test_repeat_lookup_hits_for_free(self):
        ring, rng = build_ring(32)
        accel = LookupAccelerator(ring, mode="cache")
        key = rng.randrange(KEY_SPACE)
        first = accel.lookup("c1", "n0", key)
        assert first.tier == "route" and first.messages > 0
        second = accel.lookup("c1", "n0", key)
        assert second.tier == "cache" and second.messages == 0
        assert second.owner == first.owner

    def test_caches_are_per_client(self):
        ring, rng = build_ring(32)
        accel = LookupAccelerator(ring, mode="cache")
        key = rng.randrange(KEY_SPACE)
        accel.lookup("c1", "n0", key)
        other = accel.lookup("c2", "n0", key)
        assert other.tier == "route"  # c2's cache was cold
        assert set(accel.caches) == {"c1", "c2"}

    def test_stale_entry_bills_extra_probe(self):
        ring, rng = build_ring(32, seed=2)
        accel = LookupAccelerator(ring, mode="cache")
        key = rng.randrange(KEY_SPACE)
        accel.lookup("c1", "n0", key)
        owner = ring.successor(key)
        # Move the owner elsewhere on the ring: the cached range now names
        # a node that no longer owns the key, but the node is still alive.
        ring.change_position(owner, (ring.position_of(owner) + 7) % KEY_SPACE)
        cache = accel.caches["c1"]
        cache._ring = None  # disable the membership check to expose staleness
        outcome = accel.lookup("c1", "n0", key)
        if outcome.stale:
            reference = route(ring, "n0", key)
            assert outcome.messages == reference.messages + 1
            assert outcome.owner == reference.owner

    def test_resolution_feeds_cache_back(self):
        ring, rng = build_ring(32)
        accel = LookupAccelerator(ring, mode="cache")
        key = rng.randrange(KEY_SPACE)
        accel.lookup("c1", "n0", key)
        assert accel.occupancy() == 1


class TestLearnedTier:
    def test_learned_hits_after_training(self):
        ring, rng = build_ring(64, seed=3)
        accel = LookupAccelerator(ring, mode="cache+learned", capacity=2)
        assert accel.learned.segments == 64 // 4  # sized to the ring
        keys = [rng.randrange(KEY_SPACE) for _ in range(256)]
        for key in keys:          # trains via routed fallbacks
            accel.lookup("c1", "n0", key)
        fresh = [rng.randrange(KEY_SPACE) for _ in range(100)]
        tiers = [accel.lookup("c1", "n0", key).tier for key in fresh]
        assert tiers.count("learned") > 50
        for key in fresh:
            assert ring.successor(key) == accel.lookup("c2", "n0", key).owner

    def test_owner_always_correct_in_all_mode(self):
        ring, rng = build_ring(64, seed=3)
        accel = LookupAccelerator(ring, mode="all")
        for _ in range(300):
            key = rng.randrange(KEY_SPACE)
            assert accel.lookup("c1", "n0", key).owner == ring.successor(key)


class TestAdaptiveTier:
    def test_adaptive_clients_share_one_budget(self):
        ring, rng = build_ring(32)
        accel = LookupAccelerator(ring, mode="cache+adaptive", capacity=8)
        for client in ("c1", "c2", "c3"):
            accel.lookup(client, "n0", rng.randrange(KEY_SPACE))
        assert isinstance(accel.budget, CacheBudget)
        assert accel.budget.granted == 3 * 8
        for cache in accel.caches.values():
            assert cache.capacity == 8
            assert cache._sizer.budget is accel.budget

    def test_static_modes_have_no_sizer(self):
        ring, rng = build_ring(32)
        accel = LookupAccelerator(ring, mode="cache", capacity=4)
        accel.lookup("c1", "n0", rng.randrange(KEY_SPACE))
        cache = accel.caches["c1"]
        assert cache.capacity == 4
        assert cache._sizer is None


class TestMetricsAndStats:
    def test_counters_flow_to_registry(self):
        ring, rng = build_ring(32)
        registry = MetricsRegistry()
        accel = LookupAccelerator(ring, mode="cache", registry=registry)
        key = rng.randrange(KEY_SPACE)
        accel.lookup("c1", "n0", key)
        accel.lookup("c1", "n0", key)
        assert registry.counter("accel.lookups").value == 2
        assert registry.counter("lookup.hits").value == 1
        assert registry.counter("accel.messages").value > 0

    def test_stats_shape(self):
        ring, rng = build_ring(16)
        accel = LookupAccelerator(ring, mode="all")
        accel.lookup("c1", "n0", rng.randrange(KEY_SPACE))
        stats = accel.stats()
        for field in ("mode", "clients", "occupancy", "lookups", "messages",
                      "stale_faults", "budget_granted", "learned"):
            assert field in stats
        assert stats["clients"] == 1
        assert stats["learned"] is not None


class TestDeploymentIntegration:
    def test_enable_acceleration_idempotent_per_mode(self):
        deployment = build_deployment("d2", 8, seed=1)
        accel = deployment.enable_acceleration("cache")
        assert deployment.enable_acceleration("cache") is accel
        with pytest.raises(ValueError):
            deployment.enable_acceleration("all")

    def test_deployment_defaults_flow_in(self):
        deployment = build_deployment("d2", 8, seed=1)
        accel = deployment.enable_acceleration("cache")
        assert accel.ttl == deployment.config.lookup_cache_ttl
        assert accel.seed == deployment.seed
        assert accel.ring is deployment.ring

    def test_snapshot_exposes_cache_gauges(self):
        deployment = build_deployment("d2", 8, seed=1)
        deployment.bootstrap_volume()
        accel = deployment.enable_acceleration("cache")
        key = deployment.ring.positions()[0]
        accel.lookup("c1", deployment.node_names[0], key)
        accel.lookup("c1", deployment.node_names[0], key)
        gauges = deployment.observability_snapshot()["gauges"]
        assert gauges["lookup.caches"] >= 1
        assert 0.0 <= gauges["lookup.hit_ratio"] <= 1.0
