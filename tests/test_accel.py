"""Tests for the composed lookup-acceleration tiers (cache/learned/route)."""

import random

import pytest

from repro.core.accel import ACCEL_MODES, LookupAccelerator
from repro.core.lookup_cache import DEFAULT_TTL, CacheBudget
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
        assert [len(cache) for cache in accel.caches.values()] == [1]


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
        assert accel.ttl == DEFAULT_TTL
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


class TestMatchesTheChainItReplaced:
    """A small accel cell run twice: on the code in ``src/``, and on the
    lookup, probe chain and emitting span tracer it replaced
    (``ChainAccelerator``, ``ScanLookupCache`` and ``EmittingTracer`` of
    ``tests/oracles.py``).  Every outcome, each client's cache (entries,
    statistics, sizer), the events, metrics and exported spans agree."""

    @staticmethod
    def run(mode, scenario, monkeypatch, oracle):
        from repro.analysis.accel import run_accel_cell
        from repro.core import system
        from tests.oracles import ChainAccelerator, EmittingTracer

        seen = {}
        enable = system.Deployment.enable_acceleration

        def recording(deployment, *args, **kwargs):
            accel = enable(deployment, *args, **kwargs)
            lookup, outcomes = accel.lookup, []

            def recorded(*args, **kwargs):
                outcome = lookup(*args, **kwargs)
                outcomes.append(tuple(outcome))
                return outcome

            accel.lookup = recorded
            seen.update(accel=accel, outcomes=outcomes, deployment=deployment)
            return accel

        with monkeypatch.context() as patch:
            patch.setattr(system.Deployment, "enable_acceleration", recording)
            if oracle:
                patch.setattr(system, "LookupAccelerator", ChainAccelerator)
                patch.setattr(system, "SpanTracer", EmittingTracer)
            result = run_accel_cell(mode=mode, scenario=scenario, n_nodes=24, clients=4,
                                    pre_ops=400, post_ops=600, seed=5, n_dirs=16,
                                    static_capacity=4)
        accel, deployment = seen["accel"], seen["deployment"]
        caches = {
            client: (cache.entries(), [getattr(cache.stats, f) for f in cache.stats.FIELDS],
                     cache.capacity, cache.ttl,
                     None if cache._sizer is None else
                     (cache._sizer.adaptations, cache._sizer._window_counts))
            for client, cache in accel.caches.items()
        }
        return {
            "row": result.deterministic_row(), "outcomes": seen["outcomes"], "caches": caches,
            "budget": None if accel.budget is None else accel.budget.granted,
            "events": (deployment.tracer.counts(), deployment.tracer.emitted),
            "metrics": result.metrics, "spans": result.trace,
            "span_totals": (deployment.spans.started, deployment.spans.finished,
                            deployment.spans.sampled_out, deployment.spans.counts()),
        }

    @pytest.mark.parametrize("scenario", ("hotspot", "migrate", "churn"))
    @pytest.mark.parametrize("mode", ACCEL_MODES)
    def test_cell_matches_the_chain(self, mode, scenario, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
        got = self.run(mode, scenario, monkeypatch, oracle=False)
        expected = self.run(mode, scenario, monkeypatch, oracle=True)
        assert len(got["outcomes"]) == 1000 and got["spans"]
        for part in expected:
            assert got[part] == expected[part], part

    @pytest.mark.parametrize("mode", ACCEL_MODES)
    def test_stale_entries_match_the_chain(self, mode):
        # The cells above never serve a stale entry: here nodes move under
        # warm caches, so lookups probe, invalidate and re-resolve.
        from repro.obs.events import EventTracer
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.spans import Tracer
        from tests.oracles import ChainAccelerator, EmittingTracer

        def run(accel_cls, tracer_cls):
            ring, rng = build_ring(16, seed=4)
            registry, spans = MetricsRegistry(), tracer_cls(sample=1.0)
            events = EventTracer(registry, spans)
            accel = accel_cls(ring, mode=mode, capacity=8, registry=registry, spans=spans)
            keys = [rng.randrange(KEY_SPACE) for _ in range(60)]
            outcomes = []
            for step in range(6):
                for index, key in enumerate(keys):
                    outcomes.append(tuple(accel.lookup(f"c{index % 3}", "n0", key,
                                                       now=float(step), phase="pre")))
                for name in (f"n{1 + step}", f"n{8 + step}"):
                    lo, hi = ring.range_of(name)
                    ring.change_position(name, lo + (hi - lo) // 2)  # half its arc moves on
            stats = {client: [getattr(cache.stats, f) for f in cache.stats.FIELDS]
                     for client, cache in accel.caches.items()}
            return outcomes, stats, events.counts(), spans.to_dicts()

        got = run(LookupAccelerator, Tracer)
        assert got == run(ChainAccelerator, EmittingTracer)
        if mode != "none":
            assert any(outcome[4] for outcome in got[0])  # some lookups met a stale entry
