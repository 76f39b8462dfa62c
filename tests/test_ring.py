"""Tests for ring membership and successor lookup."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dht.keyspace import KEY_SPACE, MAX_KEY, in_interval
from repro.dht.ring import Ring, RingError, load_split_point
from repro.store.block_store import BlockDirectory
from tests.oracles import owns


def make_ring(positions):
    ring = Ring()
    for i, pos in enumerate(positions):
        ring.join(f"n{i}", pos)
    return ring


class TestMembership:
    def test_join_and_len(self):
        ring = make_ring([10, 20, 30])
        assert len(ring) == 3
        assert "n0" in ring

    def test_duplicate_name_rejected(self):
        ring = make_ring([10])
        with pytest.raises(RingError):
            ring.join("n0", 20)

    def test_duplicate_position_rejected(self):
        ring = make_ring([10])
        with pytest.raises(RingError):
            ring.join("other", 10)

    def test_leave_returns_position(self):
        ring = make_ring([10, 20])
        assert ring.leave("n0") == 10
        assert "n0" not in ring
        assert len(ring) == 1

    def test_leave_unknown_raises(self):
        with pytest.raises(RingError):
            make_ring([10]).leave("ghost")

    def test_names_in_ring_order(self):
        ring = make_ring([30, 10, 20])
        assert list(ring.names()) == ["n1", "n2", "n0"]

    def test_positions_sorted(self):
        ring = make_ring([30, 10, 20])
        assert ring.positions() == (10, 20, 30)


class TestSuccessor:
    def test_exact_position_owns_key(self):
        ring = make_ring([10, 20, 30])
        assert ring.successor(20) == "n1"

    def test_key_between_nodes(self):
        ring = make_ring([10, 20, 30])
        assert ring.successor(15) == "n1"

    def test_wraps_past_largest(self):
        ring = make_ring([10, 20, 30])
        assert ring.successor(35) == "n0"

    def test_empty_ring_raises(self):
        with pytest.raises(RingError):
            Ring().successor(5)

    def test_successors_distinct(self):
        ring = make_ring([10, 20, 30])
        assert ring.successors(15, 2) == ["n1", "n2"]

    def test_successors_capped_at_ring_size(self):
        ring = make_ring([10, 20])
        assert len(ring.successors(5, 10)) == 2

    def test_single_node_owns_everything(self):
        ring = make_ring([42])
        assert ring.successor(0) == "n0"
        assert ring.successor(MAX_KEY) == "n0"
        assert owns(ring, "n0", 7)


class TestNeighbors:
    def test_predecessor_successor_inverse(self):
        ring = make_ring([10, 20, 30])
        for name in ring.names():
            assert ring.predecessor_of(ring.successor_of(name)) == name

    def test_predecessor_wraps(self):
        ring = make_ring([10, 20, 30])
        assert ring.predecessor_of("n0") == "n2"


class TestRanges:
    def test_range_of(self):
        ring = make_ring([10, 20, 30])
        assert ring.range_of("n1") == (10, 20)

    def test_first_node_range_wraps(self):
        ring = make_ring([10, 20, 30])
        assert ring.range_of("n0") == (30, 10)

    def test_owns_matches_range(self):
        ring = make_ring([10, 20, 30])
        assert owns(ring, "n1", 15)
        assert owns(ring, "n1", 20)
        assert not owns(ring, "n1", 10)
        assert not owns(ring, "n1", 25)

    def test_ranges_partition_ring(self):
        rng = random.Random(3)
        positions = sorted({rng.randrange(KEY_SPACE) for _ in range(8)})
        ring = make_ring(positions)
        probes = [rng.randrange(KEY_SPACE) for _ in range(200)]
        for key in probes:
            owners = [n for n in ring.names() if owns(ring, n, key)]
            assert len(owners) == 1
            assert owners[0] == ring.successor(key)


class TestChangePosition:
    def test_move(self):
        ring = make_ring([10, 20, 30])
        old, new = ring.change_position("n0", 25)
        assert (old, new) == (10, 25)
        assert ring.successor(22) == "n0"

    def test_move_to_occupied_restores(self):
        ring = make_ring([10, 20, 30])
        with pytest.raises(RingError):
            ring.change_position("n0", 20)
        assert ring.position_of("n0") == 10  # rolled back

    def test_free_position_at(self):
        ring = make_ring([10, 20, 30])
        assert ring.free_position_at(15) == 15
        assert ring.free_position_at(20) == 19

    def test_free_position_wraps_at_zero(self):
        ring = make_ring([0])
        assert ring.free_position_at(0) == MAX_KEY


class TestReplicaRange:
    def test_covers_own_and_predecessor_arcs(self):
        ring = make_ring([10, 20, 30, 40])
        lo, hi = ring.replica_range_of("n2", 2)
        assert (lo, hi) == (10, 30)

    def test_whole_ring_when_replicas_ge_nodes(self):
        ring = make_ring([10, 20])
        lo, hi = ring.replica_range_of("n0", 3)
        assert lo == hi  # full ring


class TestLookupMemo:
    def test_repeat_lookup_consistent(self):
        ring = make_ring([10, 20, 30])
        assert ring.successor(15) == ring.successor(15) == "n1"

    def test_memo_invalidated_by_join(self):
        ring = make_ring([10, 30])
        assert ring.successor(15) == "n1"
        assert ring.successors(15, 2) == ["n1", "n0"]
        ring.join("n2", 20)  # now owns (10, 20]
        assert ring.successor(15) == "n2"
        assert ring.successors(15, 2) == ["n2", "n1"]

    def test_memo_invalidated_by_leave(self):
        ring = make_ring([10, 20, 30])
        assert ring.successor(15) == "n1"
        ring.leave("n1")
        assert ring.successor(15) == "n2"

    def test_memo_invalidated_by_change_position(self):
        ring = make_ring([10, 20, 30])
        assert ring.successor(22) == "n2"
        ring.change_position("n0", 25)
        assert ring.successor(22) == "n0"

    def test_successors_returns_fresh_list(self):
        ring = make_ring([10, 20, 30])
        group = ring.successors(15, 2)
        group.append("tampered")
        assert ring.successors(15, 2) == ["n1", "n2"]

    def test_memoized_matches_bisect_under_churn(self):
        rng = random.Random(11)
        ring = make_ring(sorted({rng.randrange(KEY_SPACE) for _ in range(16)}))
        for round_ in range(4):
            probes = [rng.randrange(KEY_SPACE) for _ in range(100)]
            for key in probes + probes:  # second pass hits the memo
                owner = ring.successor(key)
                assert owns(ring, owner, key)
            ring.join(f"extra{round_}", ring.free_position_at(rng.randrange(KEY_SPACE)))


class TestReplicaRangeEquivalence:
    def _walk_reference(self, ring, name, replicas):
        # The pre-optimization implementation: replicas predecessor hops.
        if replicas >= len(ring):
            pos = ring.position_of(name)
            return pos, pos
        start = name
        for _ in range(replicas):
            start = ring.predecessor_of(start)
        return ring.position_of(start), ring.position_of(name)

    def test_matches_predecessor_walk(self):
        ring = make_ring([10, 20, 30, 40, 50])
        for name in ring.names():
            for replicas in (0, 1, 2, 3, 4, 5, 7):
                assert ring.replica_range_of(name, replicas) == \
                    self._walk_reference(ring, name, replicas), (name, replicas)


def split_of(keys, lo, hi):
    """The split of the arc ``(lo, hi]`` of a directory holding *keys*: the
    slice ``primary_keys`` hands over, then its median."""
    directory = BlockDirectory()
    directory.put_many([(key, 1) for key in keys])
    return load_split_point(directory.keys_in_range(lo, hi), hi)


class TestLoadSplitPoint:
    def test_median_of_range(self):
        assert load_split_point([12, 14, 16, 18], 20) == 14
        assert split_of([12, 14, 16, 18], 10, 20) == 14

    def test_requires_two_keys(self):
        assert load_split_point([15], 20) is None
        assert load_split_point([], 20) is None

    def test_ignores_keys_outside_range(self):
        # The arc's slice is all the split sees.
        assert split_of([5, 12, 14, 25], 10, 20) == 12

    def test_wrapping_range(self):
        # Clockwise order from just past MAX_KEY-5 is [MAX_KEY-1, 1, 3];
        # the lower median of three is the middle element.
        assert split_of([3, MAX_KEY - 1, 1], MAX_KEY - 5, 5) == 1

    def test_split_never_at_hi(self):
        # The owner's own position is never a useful split point.
        for keys in ([15, 20], [11, 20], [12, 19, 20]):
            assert load_split_point(keys, 20) != 20

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=2,
                    max_size=50, unique=True))
    def test_split_divides_load(self, keys):
        lo, hi = 0, 1000
        in_range = [k for k in keys if in_interval(k, lo, hi)]
        split = split_of(keys, lo, hi)
        if split is None:
            return
        below = sum(1 for k in in_range if in_interval(k, lo, split))
        above = len(in_range) - below
        # The split leaves each side with at least one key and within one
        # of half the load.
        assert below >= 1 and above >= 1
        assert abs(below - above) <= 1
