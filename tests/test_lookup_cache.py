"""Tests for the range-based lookup cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lookup_cache import AdaptiveSizer, CacheBudget, LookupCache
from repro.dht.keyspace import MAX_KEY
from repro.dht.ring import Ring
from tests.oracles import ScanLookupCache


class TestProbeInsert:
    def test_empty_cache_misses(self):
        cache = LookupCache(ttl=100.0)
        assert cache.probe(50, now=0.0) is None
        assert cache.stats.misses == 1

    def test_hit_within_range(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 20, "n1", now=0.0)
        assert cache.probe(15, now=1.0) == "n1"
        assert cache.probe(20, now=1.0) == "n1"  # hi inclusive
        assert cache.stats.hits == 2

    def test_lo_exclusive(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 20, "n1", now=0.0)
        assert cache.probe(10, now=1.0) is None

    def test_miss_outside_range(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 20, "n1", now=0.0)
        assert cache.probe(25, now=1.0) is None

    def test_multiple_ranges(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 20, "n1", now=0.0)
        cache.insert(30, 40, "n2", now=0.0)
        assert cache.probe(35, now=1.0) == "n2"
        assert cache.probe(15, now=1.0) == "n1"

    def test_wrapping_range(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(MAX_KEY - 10, 5, "wrap", now=0.0)
        assert cache.probe(MAX_KEY, now=1.0) == "wrap"
        assert cache.probe(3, now=1.0) == "wrap"
        assert cache.probe(50, now=1.0) is None

    def test_same_range_end_replaced(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 20, "old", now=0.0)
        cache.insert(12, 20, "new", now=1.0)
        assert cache.probe(15, now=2.0) == "new"
        assert len(cache) == 1


class TestTTL:
    def test_expired_entry_misses(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 20, "n1", now=0.0)
        assert cache.probe(15, now=101.0) is None

    def test_entry_valid_just_before_ttl(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 20, "n1", now=0.0)
        assert cache.probe(15, now=99.9) == "n1"

    def test_expired_entries_evicted_on_insert(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 20, "n1", now=0.0)
        cache.insert(30, 40, "n2", now=200.0)
        assert len(cache) == 1
        assert cache.stats.evictions == 1

    def test_insert_sweeps_from_the_first_expiry_on_not_before(self):
        # The sweep is skipped while nothing can have lapsed; the first
        # expiry it goes by must follow removals and replacements.
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 20, "n1", now=0.0)     # lapses at 100
        cache.insert(30, 40, "n2", now=50.0)    # lapses at 150
        cache.insert(50, 60, "n3", now=99.9)
        assert (len(cache), cache.stats.evictions) == (3, 0)
        cache.insert(70, 80, "n4", now=100.0)   # an entry lapses *at* its expiry
        assert (len(cache), cache.stats.evictions) == (3, 1)
        cache.invalidate(35)  # the next to lapse leaves early
        cache.insert(10, 20, "n5", now=150.0)
        assert (len(cache), cache.stats.evictions) == (3, 1)
        cache.insert(90, 95, "n6", now=199.0)
        assert cache.stats.evictions == 1
        cache.insert(96, 99, "n7", now=250.0)   # n3, n4 and n5 have lapsed; n6 has not
        assert [e.node for e in cache.entries()] == ["n6", "n7"]
        assert cache.stats.evictions == 4


class TestInvalidate:
    def test_invalidate_drops_entry(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 20, "n1", now=0.0)
        cache.invalidate(15)
        assert cache.probe(15, now=1.0) is None
        assert cache.stats.stale_hits == 1

    def test_invalidate_missing_noop(self):
        cache = LookupCache(ttl=100.0)
        cache.invalidate(15)
        assert cache.stats.stale_hits == 0


class TestStats:
    def test_miss_rate(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 20, "n1", now=0.0)
        cache.probe(15, now=1.0)
        cache.probe(50, now=1.0)
        assert cache.stats.miss_rate == pytest.approx(0.5)
        assert cache.stats.lookups == 2

    def test_empty_stats(self):
        cache = LookupCache()
        assert cache.stats.miss_rate == 0.0


class TestStalenessAndOverlapRegressions:
    """Regressions for the lazily-dropped / overlap-shadowing bugs.

    These fail on the pre-fix cache, which (a) kept expired entries in the
    table after returning them as misses and (b) only examined the bisect
    candidate and index 0, so a covering entry elsewhere was invisible and
    the documented freshest-entry-wins rule was unimplemented.
    """

    def test_expired_entry_dropped_on_probe(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 20, "n1", now=0.0)
        assert cache.probe(15, now=150.0) is None
        assert len(cache) == 0  # dropped, not merely skipped
        assert cache.stats.evictions == 1

    def test_expired_entry_does_not_mask_live_overlap(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 30, "old", now=0.0)   # expires at 100
        cache.insert(5, 40, "new", now=50.0)   # fresher, overlapping arc
        # At t=120 "old" has expired but "new" still covers key 20; the
        # expired entry must not shadow it into a permanent miss.
        assert cache.probe(20, now=120.0) == "new"

    def test_freshest_entry_wins_on_transient_overlap(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 30, "a", now=0.0)
        cache.insert(5, 40, "b", now=10.0)  # learned later => fresher
        assert cache.probe(20, now=50.0) == "b"

    def test_covering_entry_found_at_any_index(self):
        # A wrapping arc whose range end bisects *before* other entries:
        # the old two-candidate probe never looked at it.
        cache = LookupCache(ttl=100.0)
        cache.insert(1, 2, "tiny", now=0.0)
        cache.insert(MAX_KEY - 10, 5, "wrap", now=0.0)
        assert cache.probe(MAX_KEY - 5, now=1.0) == "wrap"

    def test_a_wrapping_arc_elsewhere_keeps_the_one_frame_probe(self, monkeypatch):
        # The cached arc of the ring's lowest node wraps past zero; keys it
        # does not cover are answered from the bisect point, keys it does
        # cover by the full search.
        cache = LookupCache(ttl=100.0)
        cache.insert(MAX_KEY - 10, 5, "wrap", now=0.0)
        cache.insert(10, 20, "n", now=0.0)
        searched = []
        monkeypatch.setattr(cache, "_find", lambda key: searched.append(key)
                            or LookupCache._find(cache, key))
        assert cache.probe(15, now=1.0) == "n"
        assert cache.probe(8, now=1.0) is None
        assert searched == []
        assert cache.probe(3, now=1.0) == "wrap"
        assert cache.probe(MAX_KEY, now=1.0) == "wrap"
        assert searched == [3, MAX_KEY]

    def test_stale_probe_then_reinsert_recovers(self):
        cache = LookupCache(ttl=100.0)
        cache.insert(10, 30, "old", now=0.0)
        assert cache.probe(20, now=150.0) is None  # expired => dropped
        cache.insert(10, 30, "new", now=150.0)
        assert cache.probe(20, now=151.0) == "new"
        assert len(cache) == 1


class TestLocalityAdvantage:
    def test_clustered_keys_hit_after_one_lookup(self):
        """The D2 effect: one cached range serves a whole directory."""
        cache = LookupCache(ttl=1e9)
        cache.insert(1000, 2000, "server", now=0.0)
        hits = sum(1 for key in range(1001, 1101) if cache.probe(key, 0.0))
        assert hits == 100

    def test_scattered_keys_keep_missing(self):
        """The traditional effect: hashed keys rarely reuse a range."""
        import random

        from repro.dht.keyspace import KEY_SPACE

        rng = random.Random(1)
        cache = LookupCache(ttl=1e9)
        width = KEY_SPACE // 1000  # 1000-node ring, one range cached
        cache.insert(0, width, "server", now=0.0)
        probes = [rng.randrange(KEY_SPACE) for _ in range(200)]
        hits = sum(1 for key in probes if cache.probe(key, 0.0) is not None)
        assert hits <= 3


class TestBoundedCapacity:
    def test_insert_over_capacity_evicts_nearest_expiry(self):
        cache = LookupCache(ttl=100.0, capacity=2)
        cache.insert(10, 20, "a", now=0.0)   # expires 100
        cache.insert(30, 40, "b", now=5.0)   # expires 105
        cache.insert(50, 60, "c", now=6.0)   # full: "a" is closest to expiry
        assert len(cache) == 2
        assert cache.probe(15, now=7.0) is None
        assert cache.probe(35, now=7.0) == "b"
        assert cache.probe(55, now=7.0) == "c"
        assert cache.stats.capacity_evictions == 1

    def test_eviction_tie_broken_by_range_end(self):
        cache = LookupCache(ttl=100.0, capacity=2)
        cache.insert(30, 40, "b", now=0.0)
        cache.insert(10, 20, "a", now=0.0)  # same expiry, lower hi
        cache.insert(50, 60, "c", now=1.0)
        assert cache.probe(15, now=2.0) is None  # "a" went first
        assert cache.probe(35, now=2.0) == "b"

    def test_same_range_end_replacement_never_evicts(self):
        cache = LookupCache(ttl=100.0, capacity=1)
        cache.insert(10, 20, "old", now=0.0)
        cache.insert(12, 20, "new", now=1.0)
        assert len(cache) == 1
        assert cache.stats.capacity_evictions == 0

    def test_unbounded_default_unchanged(self):
        cache = LookupCache(ttl=100.0)
        for i in range(100):
            cache.insert(i * 10, i * 10 + 5, f"n{i}", now=0.0)
        assert len(cache) == 100
        assert cache.stats.capacity_evictions == 0


class TestMembershipEpochChecks:
    """Satellite regression: entries must not outlive their node's crash."""

    def _ring(self):
        ring = Ring()
        ring.join("a", 100)
        ring.join("b", 200)
        ring.join("c", 300)
        return ring

    def test_probe_evicts_entry_for_departed_node(self):
        ring = self._ring()
        cache = LookupCache(ttl=1e9, ring=ring)
        lo, hi = ring.range_of("b")
        cache.insert(lo, hi, "b", now=0.0)
        ring.leave("b")
        assert cache.probe(hi, now=1.0) is None
        assert cache.stats.membership_evictions == 1
        assert len(cache) == 0

    def test_position_change_keeps_entry_alive(self):
        ring = self._ring()
        cache = LookupCache(ttl=1e9, ring=ring)
        lo, hi = ring.range_of("b")
        cache.insert(lo, hi, "b", now=0.0)
        ring.change_position("c", 350)  # version bump, "b" still a member
        assert cache.probe(hi, now=1.0) == "b"
        assert cache.stats.membership_evictions == 0

    def test_version_refreshed_after_surviving_check(self):
        ring = self._ring()
        cache = LookupCache(ttl=1e9, ring=ring)
        lo, hi = ring.range_of("b")
        cache.insert(lo, hi, "b", now=0.0)
        ring.change_position("c", 350)
        cache.probe(hi, now=1.0)
        (entry,) = cache.entries()
        assert entry.version == ring.version

    def test_crash_mid_replay_regression(self):
        """The PR-6 interaction: a dynamic-membership crash mid-replay must
        not leave clients probing into the dead node."""
        from repro.core.system import build_deployment

        deployment = build_deployment("d2", 8, seed=3)
        deployment.bootstrap_volume()
        deployment.stabilize()
        deployment.enable_dynamic_membership(min_nodes=2)
        cache = deployment.lookup_cache_for("client")
        victim = deployment.node_names[0]
        lo, hi = deployment.ring.range_of(victim)
        cache.insert(lo, hi, victim, now=deployment.sim.now)
        assert cache.probe(hi, now=deployment.sim.now) == victim
        assert deployment.membership.crash(victim)
        assert cache.probe(hi, now=deployment.sim.now) != victim
        assert cache.stats.membership_evictions == 1


class TestCacheBudget:
    def test_grants_bounded_by_remaining(self):
        budget = CacheBudget(10)
        assert budget.request(6) == 6
        assert budget.request(6) == 4  # only 4 left
        assert budget.request(1) == 0
        assert budget.remaining == 0

    def test_release_returns_entries(self):
        budget = CacheBudget(10)
        budget.request(10)
        budget.release(3)
        assert budget.remaining == 3
        budget.release(100)  # over-release clamps at zero granted
        assert budget.granted == 0

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            CacheBudget(0)


class TestAdaptiveSizer:
    def _thrash(self, cache, sizer, probes):
        """Interleave misses and capacity evictions for one window."""
        for i in range(probes):
            cache.probe(10_000_000 + i, now=0.0)  # all misses
            sizer.record(cache, "capacity_eviction")

    def test_attach_grants_initial_capacity(self):
        budget = CacheBudget(100)
        sizer = AdaptiveSizer(min_capacity=8, budget=budget)
        cache = LookupCache(ttl=100.0)
        cache.attach_sizer(sizer)
        assert cache.capacity == 8
        assert budget.granted == 8

    def test_thrash_doubles_capacity(self):
        sizer = AdaptiveSizer(window=16, min_capacity=4)
        cache = LookupCache(ttl=100.0, sizer=sizer)
        self._thrash(cache, sizer, 16)
        assert cache.capacity == 8
        assert sizer.adaptations["grow"] == 1

    def test_growth_clipped_by_budget(self):
        budget = CacheBudget(6)
        sizer = AdaptiveSizer(window=16, min_capacity=4, budget=budget)
        cache = LookupCache(ttl=100.0, sizer=sizer)
        self._thrash(cache, sizer, 16)
        assert cache.capacity == 6  # wanted 8, budget only had 2 more
        assert budget.remaining == 0

    def test_staleness_halves_ttl(self):
        sizer = AdaptiveSizer(window=16, stale_tolerance=0.02, min_ttl=10.0)
        cache = LookupCache(ttl=100.0, sizer=sizer)
        for i in range(16):
            cache.insert(i * 10, i * 10 + 5, "n", now=0.0)
            cache.probe(i * 10 + 3, now=0.0)
            if i < 4:
                cache.invalidate(i * 10 + 3)  # 25% stale rate
        assert cache.ttl == 50.0
        assert sizer.adaptations["ttl_down"] == 1

    def test_healthy_window_stretches_ttl_and_shrinks(self):
        sizer = AdaptiveSizer(window=16, min_capacity=4, target_hit_rate=0.5)
        cache = LookupCache(ttl=100.0, sizer=sizer)
        cache.capacity = 64
        cache.insert(10, 20, "n", now=0.0)
        for _ in range(16):
            cache.probe(15, now=0.0)  # pure hits, occupancy 1 <= 64//4
        assert cache.ttl == 150.0
        assert cache.capacity == 32  # one bounded halving per window
        assert sizer.adaptations["ttl_up"] == 1
        assert sizer.adaptations["shrink"] == 1

    def test_shrink_releases_budget(self):
        budget = CacheBudget(100)
        sizer = AdaptiveSizer(window=16, min_capacity=4, budget=budget,
                              target_hit_rate=0.5)
        cache = LookupCache(ttl=100.0, sizer=sizer)  # attach grants 4
        cache.capacity = 64
        budget.request(60)  # pretend the rest was granted too
        cache.insert(10, 20, "n", now=0.0)
        for _ in range(16):
            cache.probe(15, now=0.0)
        assert cache.capacity == 32
        assert budget.granted == 64 - 32  # the halving was released

    def test_ttl_respects_floor_and_cap(self):
        sizer = AdaptiveSizer(window=4, min_ttl=80.0, max_ttl=120.0,
                              target_hit_rate=0.5)
        cache = LookupCache(ttl=100.0, sizer=sizer)
        for i in range(4):
            cache.insert(i * 10, i * 10 + 5, "n", now=0.0)
            cache.probe(i * 10 + 3, now=0.0)
            cache.invalidate(i * 10 + 3)
        assert cache.ttl == 80.0  # halving clamped at the floor
        cache2 = LookupCache(ttl=100.0,
                             sizer=AdaptiveSizer(window=4, max_ttl=120.0,
                                                 target_hit_rate=0.5))
        cache2.insert(10, 20, "n", now=0.0)
        for _ in range(4):
            cache2.probe(15, now=0.0)
        assert cache2.ttl == 120.0  # stretch clamped at the cap

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveSizer(window=0)
        with pytest.raises(ValueError):
            AdaptiveSizer(min_capacity=0)
        with pytest.raises(ValueError):
            AdaptiveSizer(min_capacity=10, max_capacity=5)


NODES = "abcdef"
SMALL_KEYS = st.integers(min_value=0, max_value=999)
CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), SMALL_KEYS, SMALL_KEYS, st.sampled_from(NODES)),
        # lo == hi: the full ring
        SMALL_KEYS.flatmap(lambda at: st.tuples(
            st.just("insert"), st.just(at), st.just(at), st.sampled_from(NODES))),
        st.tuples(st.just("probe"), SMALL_KEYS),
        st.tuples(st.just("invalidate"), SMALL_KEYS),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=60.0)),
        st.tuples(st.just("join"), st.sampled_from(NODES), SMALL_KEYS),
        st.tuples(st.just("leave"), st.sampled_from(NODES)),
        st.tuples(st.just("move"), st.sampled_from(NODES), SMALL_KEYS),
    ),
    max_size=80,
)


def index_of(cache):
    """What ``_find`` reads, with entries by identity."""
    return (list(cache._min_lo), [id(e) for e in cache._wrapping], cache._first_expiry)


class TestIncrementalIndex:
    """The cache patches its index one change at a time; after every step it
    must equal the index built from scratch, and every answer, entry and
    counter must equal the index-free scan of ``tests.oracles``."""

    @settings(max_examples=150, deadline=None)
    @given(ops=CACHE_OPS, capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
    def test_matches_the_scan_and_a_rebuilt_index(self, ops, capacity):
        ring = Ring()
        for index, name in enumerate(NODES[:4]):
            ring.join(name, 250 * index + 100)
        cache, oracle = (
            cls(ttl=100.0, capacity=capacity, ring=ring) for cls in (LookupCache, ScanLookupCache)
        )
        now = 0.0
        for op, *args in ops:
            if op == "advance":
                now += args[0]
                continue
            if op in ("join", "leave", "move"):
                name, *position = args
                if op == "leave" and name in ring and len(ring) > 1:
                    ring.leave(name)
                elif op == "join" and name not in ring and not ring.occupied(position[0]):
                    ring.join(name, position[0])
                elif op == "move" and name in ring and not ring.occupied(position[0]):
                    ring.change_position(name, position[0])
                continue
            call = (*args, now) if op != "invalidate" else tuple(args)
            assert getattr(cache, op)(*call) == getattr(oracle, op)(*call), (op, call)
            assert cache.entries() == oracle.entries()
            assert cache.stats == oracle.stats
            patched = index_of(cache)
            cache._reindex()
            assert index_of(cache) == patched, (op, call)

    def test_an_append_patches_without_a_rebuild(self, monkeypatch):
        cache = LookupCache(ttl=100.0)
        monkeypatch.setattr(cache, "_reindex", lambda: pytest.fail("index rebuilt"))
        for lo in (500, 100, 300, 900, 700):
            cache.insert(lo, lo + 50, "n", now=0.0)
        cache.insert(120, 150, "m", now=1.0)  # same range end: a replacement
        cache.invalidate(320)
        assert [(e.lo, e.hi) for e in cache.entries()] == [
            (120, 150), (500, 550), (700, 750), (900, 950),
        ]
        assert cache._min_lo[:-1] == [120, 500, 700, 900]


class TestAnswersArc:
    """The proof ``warm`` leans on: when ``_answers_arc`` holds for a live
    entry, a probe of every key of its arc finds that entry, and the ring
    names its node as the key's owner."""

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("learn"), st.sampled_from(NODES)),  # an owner's current arc
        # Arcs that do not wrap, to overlap the learnt ones from either side
        # (a wrapping arc overlaps nearly every other: the proof rarely holds).
        st.tuples(st.just("span"), st.integers(0, 900), st.integers(1, 400),
                  st.sampled_from(NODES)),
        # an arc across a node's position: it overlaps the end of that
        # node's arc and the start of its successor's
        st.tuples(st.just("straddle"), st.sampled_from(NODES), st.integers(1, 150),
                  st.integers(0, 150), st.sampled_from(NODES)),
        st.tuples(st.just("insert"), SMALL_KEYS, SMALL_KEYS, st.sampled_from(NODES)),
        st.tuples(st.just("move"), st.sampled_from(NODES), SMALL_KEYS),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=60.0)),
    ), max_size=40))
    def test_sound_for_every_key_of_the_arc(self, ops):
        ring = Ring()
        for index, name in enumerate(NODES):
            ring.join(name, 160 * index + 100)
        cache = LookupCache(ttl=100.0, ring=ring)
        now = 0.0
        for op, *args in ops:
            if op == "learn":
                cache.insert(*ring.range_of(args[0]), args[0], now)
            elif op == "span":
                lo, width, node = args
                cache.insert(lo, min(999, lo + width), node, now)
            elif op == "straddle":
                at, back, ahead, node = args
                if at in ring:
                    position = ring.position_of(at)
                    cache.insert(max(0, position - back), min(999, position + ahead), node, now)
            elif op == "insert":
                cache.insert(*args, now)
            elif op == "move" and not ring.occupied(args[1]):
                ring.change_position(*args)
            elif op == "advance":
                now += args[0]
            for entry in cache.entries():
                if entry.expires_at > now and cache._answers_arc(entry, ring):
                    for key in range(entry.lo + 1, entry.hi + 1):
                        assert cache._find(key) is entry, (entry, key)
                        assert ring.successor(key) == entry.node, (entry, key)
