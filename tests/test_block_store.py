"""Tests for the block directory (sorted index with circular range queries)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dht.keyspace import MAX_KEY
from repro.dht.ring import load_split_point
from repro.store.block_store import BlockDirectory, BlockDirectoryError


class TestMutation:
    def test_add_and_contains(self):
        d = BlockDirectory()
        d.add(10, 100)
        assert 10 in d
        assert len(d) == 1
        assert d.size_of(10) == 100

    def test_add_duplicate_rejected(self):
        d = BlockDirectory()
        d.add(10, 100)
        with pytest.raises(BlockDirectoryError):
            d.add(10, 200)

    def test_put_upserts(self):
        d = BlockDirectory()
        assert d.put(10, 100) == 100
        assert d.put(10, 250) == 150
        assert d.size_of(10) == 250
        assert d.total_bytes == 250

    def test_remove_returns_size(self):
        d = BlockDirectory()
        d.add(10, 100)
        assert d.remove(10) == 100
        assert 10 not in d
        assert d.total_bytes == 0

    def test_remove_missing_raises(self):
        with pytest.raises(BlockDirectoryError):
            BlockDirectory().remove(10)

    def test_discard_missing_returns_none(self):
        assert BlockDirectory().discard(10) is None

    def test_negative_size_rejected(self):
        with pytest.raises(BlockDirectoryError):
            BlockDirectory().add(10, -1)

    def test_total_bytes_tracks(self):
        d = BlockDirectory()
        d.add(1, 10)
        d.add(2, 20)
        d.remove(1)
        assert d.total_bytes == 20


class TestRangeQueries:
    def make(self):
        d = BlockDirectory()
        for key in (10, 20, 30, 40, 50):
            d.add(key, key)
        return d

    def test_simple_range(self):
        d = self.make()
        assert d.keys_in_range(15, 45) == [20, 30, 40]
        assert d.count_in_range(15, 45) == 3

    def test_lo_exclusive_hi_inclusive(self):
        d = self.make()
        assert d.keys_in_range(10, 30) == [20, 30]

    def test_wrapping_range(self):
        d = self.make()
        assert d.keys_in_range(45, 15) == [50, 10]
        assert d.count_in_range(45, 15) == 2

    def test_full_ring_when_lo_equals_hi(self):
        d = self.make()
        assert d.count_in_range(25, 25) == 5
        assert sorted(d.keys_in_range(25, 25)) == [10, 20, 30, 40, 50]

    def test_full_ring_order_is_clockwise(self):
        d = self.make()
        assert d.keys_in_range(25, 25) == [30, 40, 50, 10, 20]

    def test_empty_directory(self):
        d = BlockDirectory()
        assert d.keys_in_range(0, MAX_KEY) == []
        assert d.count_in_range(0, MAX_KEY) == 0

    def test_bytes_in_range(self):
        d = self.make()
        assert d.bytes_in_range(15, 45) == 20 + 30 + 40

    def test_counts_match_keys(self):
        d = self.make()
        for lo, hi in ((0, 25), (25, 0), (10, 10), (49, 51)):
            assert d.count_in_range(lo, hi) == len(d.keys_in_range(lo, hi))

    def test_mutation_invalidates_index(self):
        d = self.make()
        assert d.count_in_range(15, 45) == 3
        d.add(25, 25)
        assert d.count_in_range(15, 45) == 4
        d.remove(25)
        assert d.count_in_range(15, 45) == 3


class TestIndexPatching:
    """The sorted index is patched between queries, re-sorted after bulk."""

    def make(self, n=64):
        d = BlockDirectory()
        for key in range(0, 10 * n, 10):
            d.add(key, 1)
        assert d.count_in_range(5, 5) == n  # builds the index
        return d

    def test_few_changes_patch_the_list_in_place(self):
        d = self.make()
        index = d._sorted
        d.add(15, 1)
        d.remove(20)
        d.put(30, 9)  # size only: not a change of the key set
        assert d._pending == {15: True, 20: False}
        assert d.keys_in_range(0, 40) == [10, 15, 30, 40]
        assert d._sorted is index and not d._pending

    def test_a_key_that_comes_and_goes_inside_a_window_cancels(self):
        d = self.make()
        d.add(15, 1)
        d.discard(15)  # never reached the index
        d.remove(20)
        d.put(20, 2)  # never left it
        assert d._pending == {}
        assert d.keys_in_range(0, 30) == [10, 20, 30]

    def test_bulk_changes_stop_being_recorded(self):
        d = BlockDirectory()
        d.add(1, 1)
        assert d._pending is None  # any change is the whole of an empty index
        d = self.make(64)
        for key in range(5, 5 + 10 * 4, 10):
            d.add(key, 1)  # 4 of 64 pending: exactly the share, still a patch
        assert len(d._pending) == 4
        d.add(45, 1)
        assert d._pending is None
        d.remove(45)  # too late to cancel; the re-sort reads the key set anyway
        assert d.keys_in_range(0, 50) == [5, 10, 15, 20, 25, 30, 35, 40, 50]
        assert d._pending == {}

    def test_returned_lists_survive_later_patches(self):
        d = self.make(32)
        whole = d.keys_in_range(315, 315)  # full ring, rotation point at the end
        assert whole == list(range(0, 320, 10)) and whole is not d._sorted
        d.add(5, 1)
        assert d.count_in_range(0, 10) == 2 and d._sorted[:3] == [0, 5, 10]
        assert whole == list(range(0, 320, 10))

    def test_patch_refuses_to_delete_a_neighbour(self):
        d = self.make()
        d._sorted.remove(20)  # the index lost a key the directory still has
        d.remove(20)
        with pytest.raises(BlockDirectoryError):
            d.count_in_range(0, 100)
        assert 10 in d._sorted and 30 in d._sorted


class TestMedian:
    """The balancer's split point: the median of the arc's clockwise slice."""

    def test_median_simple(self):
        d = BlockDirectory()
        for key in (10, 20, 30, 40):
            d.add(key, 1)
        assert load_split_point(d.keys_in_range(5, 45), 45) == 20

    def test_median_needs_two_keys(self):
        d = BlockDirectory()
        d.add(10, 1)
        assert load_split_point(d.keys_in_range(0, 100), 100) is None

    def test_median_not_at_hi(self):
        d = BlockDirectory()
        d.add(10, 1)
        d.add(20, 1)
        assert load_split_point(d.keys_in_range(0, 20), 20) == 10


class TestSnapshotLoads:
    def test_loads_per_arc(self):
        d = BlockDirectory()
        for key in (10, 20, 30, 40, 50):
            d.add(key, 1)
        arcs = [(5, 25, "a"), (25, 55, "b"), (55, 5, "c")]
        loads = {name: d.count_in_range(lo, hi) for lo, hi, name in arcs}
        assert loads == {"a": 2, "b": 3, "c": 0}


@given(st.sets(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60),
       st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=10_000))
def test_range_query_matches_bruteforce(keyset, lo, hi):
    from repro.dht.keyspace import in_interval

    d = BlockDirectory()
    for key in keyset:
        d.add(key, 1)
    expected = sorted(k for k in keyset if lo == hi or in_interval(k, lo, hi))
    got = sorted(d.keys_in_range(lo, hi))
    assert got == expected
