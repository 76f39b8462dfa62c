"""Tests for the block directory (sorted index with circular range queries)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dht.keyspace import MAX_KEY
from repro.dht.ring import load_split_point
from repro.store import block_store
from repro.store.block_store import BlockDirectory, BlockDirectoryError


class TestMutation:
    def test_add_and_contains(self):
        d = BlockDirectory()
        d.put_many([(10, 100)])
        assert 10 in d
        assert len(d) == 1
        assert d.size_of(10) == 100

    def test_put_upserts(self):
        d = BlockDirectory()
        d.put_many([(10, 100), (10, 250)])
        assert d.size_of(10) == 250
        assert d.total_bytes == 250

    def test_remove_returns_size(self):
        d = BlockDirectory()
        d.put_many([(10, 100)])
        assert d.discard(10) == 100
        assert 10 not in d
        assert d.total_bytes == 0

    def test_discard_missing_returns_none(self):
        assert BlockDirectory().discard(10) is None

    def test_negative_size_rejected(self):
        d = BlockDirectory()
        with pytest.raises(BlockDirectoryError):
            d.put_many([(20, 1), (10, -1)])
        assert len(d) == 0 and d.total_bytes == 0  # checked before any change

    def test_total_bytes_tracks(self):
        d = BlockDirectory()
        d.put_many([(1, 10), (2, 20)])
        d.discard(1)
        assert d.total_bytes == 20


class TestRangeQueries:
    def make(self):
        d = BlockDirectory()
        d.put_many([(key, key) for key in (10, 20, 30, 40, 50)])
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
        d.put_many([(25, 25)])
        assert d.count_in_range(15, 45) == 4
        d.discard(25)
        assert d.count_in_range(15, 45) == 3


class TestBucketIndex:
    """The sorted index is kept in buckets between queries, re-sorted after
    a burst."""

    @pytest.fixture(autouse=True)
    def small_buckets(self, monkeypatch):
        monkeypatch.setattr(block_store, "BUCKET_KEYS", 8)

    def make(self, n=64):
        d = BlockDirectory()
        d.put_many([(key, 1) for key in range(0, 10 * n, 10)])
        assert d.count_in_range(5, 5) == n  # builds the index
        return d

    def test_few_changes_touch_one_bucket(self):
        d = self.make()
        buckets = d._buckets
        untouched = [list(bucket) for bucket in buckets[1:]]
        d.put_many([(15, 1)])
        d.discard(20)
        d.put_many([(30, 9)])  # size only: not a change of the key set
        assert d._buckets is buckets and d._starts is None
        assert buckets[:2] == [[0, 10, 15], [30, 40, 50, 60, 70]]  # the full one split
        assert buckets[2:] == untouched and d._maxes[:3] == [15, 70, 150]
        assert d.keys_in_range(0, 40) == [10, 15, 30, 40]
        assert d._starts == [0, 3, *range(8, 65, 8)]

    def test_put_then_discard_leaves_the_index_as_it_was(self):
        d = self.make(196)  # 24 full buckets and one of four keys
        before = [list(bucket) for bucket in d._buckets], list(d._maxes)
        d.discard(20)  # out of a full bucket and back
        d.put_many([(20, 2)])
        d.put_many([(1935, 1)])  # into the short last bucket and out
        d.discard(1935)
        d.put_many([(1955, 1)])  # past every key: the last bucket grows
        d.discard(1955)
        assert ([list(bucket) for bucket in d._buckets], d._maxes) == before
        assert d.keys_in_range(0, 30) == [10, 20, 30]

    def test_a_burst_costs_one_sort(self, monkeypatch):
        sorts = []
        monkeypatch.setattr(block_store, "sorted",
                            lambda keys: sorts.append(1) or sorted(keys), raising=False)
        d = BlockDirectory()
        d.put_many([(1, 1)])
        assert d._room < 0  # any change is the whole of an empty index
        d = self.make(64)
        assert len(sorts) == 1
        d.put_many([(key, 1) for key in range(5, 5 + 10 * 4, 10)])
        assert d._room == 0  # 4 of 64 changed: exactly the share, still buckets
        d.put_many([(45, 1)])
        assert d._room < 0
        d.discard(45)  # the re-sort reads the key set anyway
        assert d.keys_in_range(0, 50) == [5, 10, 15, 20, 25, 30, 35, 40, 50]
        assert len(sorts) == 2 and all(len(bucket) <= 8 for bucket in d._buckets)

    def test_returned_lists_survive_later_mutation(self):
        d = self.make(32)
        whole = d.keys_in_range(315, 315)  # full ring, rotation point at the end
        arc = d.keys_in_range(0, 70)  # exactly one bucket, minus its first key
        assert whole == list(range(0, 320, 10)) and arc == list(range(10, 80, 10))
        d.put_many([(5, 1), (65, 1)])
        d.discard(70)
        assert d.count_in_range(0, 10) == 2 and d._buckets[0][:3] == [0, 5, 10]
        assert whole == list(range(0, 320, 10)) and arc == list(range(10, 80, 10))

    def test_discard_missing_from_its_bucket_deletes_no_neighbour(self):
        d = self.make()
        d._buckets[0].remove(20)  # the index lost a key the directory still has
        with pytest.raises(BlockDirectoryError):
            d.discard(20)
        assert d._buckets[0] == [0, 10, 30, 40, 50, 60, 70]


class TestMedian:
    """The balancer's split point: the median of the arc's clockwise slice."""

    def test_median_simple(self):
        d = BlockDirectory()
        d.put_many([(key, 1) for key in (10, 20, 30, 40)])
        assert load_split_point(d.keys_in_range(5, 45), 45) == 20

    def test_median_needs_two_keys(self):
        d = BlockDirectory()
        d.put_many([(10, 1)])
        assert load_split_point(d.keys_in_range(0, 100), 100) is None

    def test_median_not_at_hi(self):
        d = BlockDirectory()
        d.put_many([(10, 1), (20, 1)])
        assert load_split_point(d.keys_in_range(0, 20), 20) == 10


class TestSnapshotLoads:
    def test_loads_per_arc(self):
        d = BlockDirectory()
        d.put_many([(key, 1) for key in (10, 20, 30, 40, 50)])
        arcs = [(5, 25, "a"), (25, 55, "b"), (55, 5, "c")]
        loads = {name: d.count_in_range(lo, hi) for lo, hi, name in arcs}
        assert loads == {"a": 2, "b": 3, "c": 0}


@given(st.sets(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60),
       st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=0, max_value=10_000))
def test_range_query_matches_bruteforce(keyset, lo, hi):
    from repro.dht.keyspace import in_interval

    d = BlockDirectory()
    d.put_many([(key, 1) for key in keyset])
    expected = sorted(k for k in keyset if lo == hi or in_interval(k, lo, hi))
    got = sorted(d.keys_in_range(lo, hi))
    assert got == expected
