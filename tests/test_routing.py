"""Tests for the Chord-style greedy finger routing model."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.scale import run_scale_routing
from repro.dht.consistent_hashing import random_node_ids
from repro.dht.keyspace import KEY_SPACE
from repro.dht.ring import Ring
from repro.dht.routing import finger_table_for, route, route_many
from tests.oracles import route_cold


def build_ring(n, seed=0):
    ring = Ring()
    rng = random.Random(seed)
    for i, node_id in enumerate(random_node_ids(n, rng)):
        ring.join(f"n{i}", node_id)
    return ring, rng


class TestRouteCorrectness:
    def test_terminates_at_owner(self):
        ring, rng = build_ring(32)
        for _ in range(50):
            key = rng.randrange(KEY_SPACE)
            result = route(ring, "n0", key)
            assert result.owner == ring.successor(key)
            assert result.path[-1] == result.owner

    def test_path_starts_at_source(self):
        ring, rng = build_ring(8)
        result = route(ring, "n3", 12345)
        assert result.path[0] == "n3"

    def test_source_owns_key(self):
        ring, _ = build_ring(8)
        own_id = ring.position_of("n2")
        result = route(ring, "n2", own_id)
        assert result.owner == "n2"
        assert result.hops == 0
        assert result.path == ["n2"]

    def test_single_node_ring(self):
        ring = Ring()
        ring.join("solo", 42)
        result = route(ring, "solo", 7)
        assert result.owner == "solo"
        assert result.hops == 0

    def test_two_node_ring(self):
        ring = Ring()
        ring.join("a", 100)
        ring.join("b", KEY_SPACE // 2)
        for key in (50, 200, KEY_SPACE // 2 + 5):
            result = route(ring, "a", key)
            assert result.owner == ring.successor(key)

    def test_unknown_source_rejected(self):
        ring, _ = build_ring(4)
        with pytest.raises(ValueError):
            route(ring, "ghost", 1)

    def test_path_makes_forward_progress(self):
        """Every hop strictly shrinks the clockwise distance to the key."""
        ring, rng = build_ring(64, seed=5)
        from repro.dht.keyspace import distance

        for _ in range(20):
            key = rng.randrange(KEY_SPACE)
            result = route(ring, "n0", key)
            distances = [
                distance(ring.position_of(name), key) for name in result.path[:-1]
            ]
            assert all(d1 > d2 for d1, d2 in zip(distances, distances[1:])) or len(distances) <= 1


class TestHopScaling:
    def test_hops_logarithmic(self):
        """Mean hops stays within a small factor of 0.5*log2(n)."""
        for n in (16, 64, 256):
            ring, rng = build_ring(n, seed=n)
            total = 0
            samples = 100
            for _ in range(samples):
                source = f"n{rng.randrange(n)}"
                key = rng.randrange(KEY_SPACE)
                total += route(ring, source, key).hops
            mean = total / samples
            assert mean <= 2.5 * math.log2(n)
            assert mean >= 0.2 * math.log2(n)

    def test_hops_grow_with_ring_size(self):
        means = []
        for n in (8, 512):
            ring, rng = build_ring(n, seed=n)
            total = sum(
                route(ring, f"n{rng.randrange(n)}", rng.randrange(KEY_SPACE)).hops
                for _ in range(150)
            )
            means.append(total / 150)
        assert means[1] > means[0]


class TestFingerTable:
    def test_matches_cold_routing(self):
        """The precomputed table routes byte-identically to the reference."""
        for n in (1, 2, 3, 8, 64, 300):
            ring, rng = build_ring(n, seed=n)
            names = list(ring.names())
            for _ in range(60):
                source = names[rng.randrange(n)]
                key = rng.randrange(KEY_SPACE)
                assert route(ring, source, key).path == \
                    route_cold(ring, source, key).path

    def test_shared_per_ring(self):
        ring, _ = build_ring(8)
        assert finger_table_for(ring) is finger_table_for(ring)

    def test_membership_change_invalidates(self):
        ring, rng = build_ring(16, seed=3)
        table = finger_table_for(ring)
        key = rng.randrange(KEY_SPACE)
        route(ring, "n0", key)  # populate
        ring.join("late", rng.randrange(KEY_SPACE))
        result = route(ring, "n0", key)
        assert result.owner == ring.successor(key)
        assert table is finger_table_for(ring)  # same table, refreshed
        names = list(ring.names())
        for _ in range(40):
            source = names[rng.randrange(len(names))]
            probe = rng.randrange(KEY_SPACE)
            assert route(ring, source, probe).path == \
                route_cold(ring, source, probe).path

    def test_leave_invalidates(self):
        ring, rng = build_ring(16, seed=9)
        key = rng.randrange(KEY_SPACE)
        route(ring, "n0", key)
        ring.leave("n7")
        names = [n for n in ring.names()]
        for _ in range(40):
            source = names[rng.randrange(len(names))]
            probe = rng.randrange(KEY_SPACE)
            assert route(ring, source, probe).path == \
                route_cold(ring, source, probe).path


class TestRouteMany:
    def test_matches_single_route(self):
        ring, rng = build_ring(64, seed=7)
        keys = [rng.randrange(KEY_SPACE) for _ in range(200)]
        batched = route_many(ring, "n0", keys)
        singles = [route(ring, "n0", k) for k in keys]
        assert [r.path for r in batched] == [r.path for r in singles]
        assert [r.owner for r in batched] == [r.owner for r in singles]
        assert [r.hops for r in batched] == [r.hops for r in singles]

    def test_preserves_input_order(self):
        ring, rng = build_ring(32, seed=2)
        keys = [rng.randrange(KEY_SPACE) for _ in range(50)]
        results = route_many(ring, "n1", keys)
        assert [r.key for r in results] == keys

    def test_empty_batch(self):
        ring, _ = build_ring(4)
        assert route_many(ring, "n0", []) == []

    def test_unknown_source_rejected(self):
        ring, _ = build_ring(4)
        with pytest.raises(ValueError):
            route_many(ring, "ghost", [1, 2])

    def test_single_node_ring(self):
        ring = Ring()
        ring.join("solo", 42)
        results = route_many(ring, "solo", [1, 99])
        assert all(r.owner == "solo" and r.hops == 0 for r in results)


class TestMessages:
    def test_messages_is_hops_plus_response(self):
        ring, rng = build_ring(32)
        result = route(ring, "n0", rng.randrange(KEY_SPACE))
        assert result.messages == result.hops + 1

    def test_results_are_immutable(self):
        ring, rng = build_ring(32)
        key = rng.randrange(KEY_SPACE)
        for result in (route(ring, "n0", key), route_many(ring, "n0", [key])[0],
                       route_cold(ring, "n0", key)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                result.owner = "n1"

    def test_mean_hops_in_half_log2_envelope(self):
        # Greedy finger routing to a uniform key over n uniform node ids
        # (Chord, Stoica et al., Section IV-C).  Each hop clears the highest
        # set bit of the distance still to cover.  Of that distance only the
        # top ~log2(n) bits lie above the node spacing, and each is set with
        # probability 1/2, so reaching the key's predecessor takes about
        # (1/2)*log2(n) hops, give or take a fraction of a hop for the bit
        # that straddles the spacing.  The last hop, predecessor to owner,
        # adds one.  The mean thus sits in [(1/2)*log2(n), (1/2)*log2(n) + 1]:
        # 2.53 at n = 16 up to 6.88 at n = 4096; the closest to an edge is
        # n = 64, seed 1, at 3.947 against 4.0.
        for n_nodes in (16, 64, 256, 1000, 4096):
            low = 0.5 * math.log2(n_nodes)
            for seed in (1, 2, 3):
                cell = run_scale_routing(n_nodes=n_nodes, ops=4000, seed=seed)
                mean = cell.hops / cell.ops
                assert low <= mean <= low + 1, (n_nodes, seed, mean)


# ----------------------------------------------------------------------
# The index-space walk against the 512-bit reference, on adversarial rings

_ANY_ID = st.integers(min_value=0, max_value=KEY_SPACE - 1)


@st.composite
def ring_source_keys(draw):
    """A 1-64 node ring, a source on it, and a batch of boundary keys.

    Node ids cluster around a few anchors (adjacent ids, ids a few apart)
    and around both ends of the key space (0 and ``KEY_SPACE - 1``
    included); keys are random, exactly a node id, one off a node id,
    past the largest id (so ownership wraps), or the source's own id, and
    the batch repeats both keys and owners.
    """
    anchors = draw(st.lists(_ANY_ID, max_size=6)) + [0, KEY_SPACE - 1]
    near_anchor = st.builds(
        lambda anchor, delta: (anchor + delta) % KEY_SPACE,
        st.sampled_from(anchors), st.integers(-3, 3),
    )
    ids = sorted(draw(st.sets(near_anchor | _ANY_ID, min_size=1, max_size=64)))
    ring = Ring()
    for index, node_id in enumerate(ids):
        ring.join(f"n{index}", node_id)
    source = f"n{draw(st.integers(0, len(ids) - 1))}"
    near_node = st.builds(
        lambda node_id, delta: (node_id + delta) % KEY_SPACE,
        st.sampled_from(ids), st.sampled_from([-1, 0, 1]),
    )
    past_largest = st.integers(ids[-1], KEY_SPACE - 1)
    key = near_node | past_largest | _ANY_ID | st.just(ring.position_of(source))
    keys = draw(st.lists(key, min_size=1, max_size=12))
    # Same keys again, and each key's neighbour (usually the same owner).
    keys += keys[::2] + [(k - 1) % KEY_SPACE for k in keys[:4]]
    return ring, source, keys


def cold_paths(ring, source, keys):
    return [route_cold(ring, source, key).path for key in keys]


class TestWalkMatchesReference:
    @settings(deadline=None, max_examples=150)
    @given(ring_source_keys())
    def test_route_and_route_many_equal_cold(self, case):
        ring, source, keys = case
        expected = cold_paths(ring, source, keys)
        batched = route_many(ring, source, keys)
        assert [r.path for r in batched] == expected
        assert [r.key for r in batched] == keys
        assert [r.owner for r in batched] == [ring.successor(k) for k in keys]
        assert [route(ring, source, k).path for k in keys] == expected

    @settings(deadline=None, max_examples=50)
    @given(ring_source_keys())
    def test_batch_results_do_not_alias(self, case):
        ring, source, keys = case
        results = route_many(ring, source, keys)
        expected = [list(r.path) for r in results]
        for index, result in enumerate(results):
            result.path.append("scribble")
            others = [r.path for r in results[index + 1:]]
            assert others == expected[index + 1:]
        # Nothing of the finished batch leaks into the next one either.
        assert [r.path for r in route_many(ring, source, keys)] == expected

    @settings(deadline=None, max_examples=50)
    @given(ring_source_keys(), _ANY_ID)
    def test_membership_change_between_batches(self, case, new_id):
        ring, source, keys = case
        route_many(ring, source, keys)
        if not ring.occupied(new_id):
            ring.join("late", new_id)
        assert [r.path for r in route_many(ring, source, keys)] == \
            cold_paths(ring, source, keys)
        others = [name for name in ring.names() if name != source]
        if others:
            ring.leave(others[0])
        assert [r.path for r in route_many(ring, source, keys)] == \
            cold_paths(ring, source, keys)

    def test_max_hops_bound_still_raises(self):
        ring, rng = build_ring(64, seed=11)
        keys = [rng.randrange(KEY_SPACE) for _ in range(40)]
        longest = max(route(ring, "n0", key).hops for key in keys)
        assert longest >= 2
        with pytest.raises(RuntimeError):
            route_many(ring, "n0", keys, max_hops=longest - 1)
        with pytest.raises(RuntimeError):
            for key in keys:
                route(ring, "n0", key, max_hops=longest - 1)
        # The bound is inclusive: a path of exactly max_hops hops is fine.
        assert len(route_many(ring, "n0", keys, max_hops=longest)) == len(keys)
