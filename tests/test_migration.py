"""Tests for the storage coordinator: writes, removal, moves, pointers."""

import pytest

from repro.dht.keyspace import KEY_SPACE
from repro.dht.ring import Ring, RingError
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.store.block_store import BlockDirectoryError
from repro.store.migration import SECONDS_PER_DAY, StorageCoordinator, TrafficLedger
from tests.oracles import store_state


def make_system(positions=(100, 200, 300, 400), **kwargs):
    ring = Ring()
    for i, pos in enumerate(positions):
        ring.join(f"n{i}", pos * (KEY_SPACE // 1000))
    sim = Simulator()
    return ring, sim, StorageCoordinator(ring, sim, **kwargs)


def key_at(thousandth):
    return thousandth * (KEY_SPACE // 1000)


class TestWritePath:
    def test_write_places_on_owner(self):
        ring, sim, store = make_system()
        key = key_at(150)
        store.write(key, 8192)
        assert store.physical_holder(key) == ring.successor(key) == "n1"
        assert store.ledger.total_written == 8192

    def test_overwrite_accounts_at_least_size(self):
        ring, sim, store = make_system()
        key = key_at(150)
        store.write(key, 8192)
        store.write(key, 8192)
        assert store.ledger.total_written == 16384

    def test_holders_are_replica_group(self):
        ring, sim, store = make_system()
        key = key_at(150)
        store.write(key, 10)
        assert store.holders(key) == ["n1", "n2", "n3"]


class TestCommit:
    """One flush: ``write`` and ``remove`` are its one-key cases."""

    def test_flush_lands_as_its_writes_and_removes_would(self):
        ring, sim, store = make_system(removal_delay=30.0)
        old, a, b = key_at(120), key_at(150), key_at(350)
        store.write(old, 500)
        store.commit([(a, 100), (b, 200), (a, 300)], [old, key_at(999)])
        assert store.directory.size_of(a) == 300 and store.directory.size_of(b) == 200
        assert (store.physical_holder(a), store.physical_holder(b)) == ("n1", "n3")
        assert store.ledger.total_written == 500 + 600
        assert store.metrics.get("store.writes").value == 4
        assert old in store.directory and sim.pending() == 2  # one event per key
        sim.run()
        assert old not in store.directory
        assert store.ledger.total_removed == 500  # the unknown key removed nothing
        assert store.metrics.get("store.removes").value == 1

    def test_empty_flush_touches_nothing(self):
        ring, sim, store = make_system()
        before = store_state(store)
        store.commit([], [])
        assert store_state(store) == before  # no zero-byte day in the ledger either

    def test_owners_are_not_memoised(self):
        """A flush's keys are fresh versions nobody asks about again."""
        ring, sim, store = make_system()
        store.commit([(key_at(k), 10) for k in range(1, 900, 7)])
        assert not ring._owner_memo
        assert store.physical_holder(key_at(8)) == ring.successor(key_at(8))

    @pytest.mark.parametrize("bad, error", [
        ((-1, 10), ValueError), ((KEY_SPACE, 10), ValueError),
        (("7", 10), TypeError), ((7.0, 10), TypeError),
        ((7, -1), BlockDirectoryError),
    ])
    def test_invalid_put_anywhere_refuses_the_whole_flush(self, bad, error):
        ring, sim, store = make_system(removal_delay=30.0)
        store.write(key_at(120), 500, ttl=60.0)
        before = store_state(store)
        puts = [(key_at(150), 100), (key_at(120), 50), bad, (key_at(350), 200)]
        with pytest.raises(error):
            store.commit(puts, [key_at(120)])
        assert store_state(store) == before

    @pytest.mark.parametrize("bad, error", [(-1, ValueError), ("7", TypeError)])
    def test_invalid_remove_refuses_the_whole_flush(self, bad, error):
        ring, sim, store = make_system(removal_delay=30.0)
        store.write(key_at(120), 500, ttl=60.0)
        before = store_state(store)
        with pytest.raises(error):
            store.commit([(key_at(150), 100)], [key_at(120), bad])
        assert store_state(store) == before

    def test_nonpositive_ttl_and_empty_ring_refuse_before_writing(self):
        ring, sim, store = make_system()
        before = store_state(store)
        with pytest.raises(ValueError):
            store.write(key_at(150), 100, ttl=0.0)
        assert store_state(store) == before
        empty = StorageCoordinator(Ring(), Simulator(), registry=MetricsRegistry())
        with pytest.raises(RingError):
            empty.write(key_at(150), 100)
        assert store_state(empty) == store_state(
            StorageCoordinator(Ring(), Simulator(), registry=MetricsRegistry())
        )


class TestRemoval:
    def test_removal_delayed(self):
        ring, sim, store = make_system(removal_delay=30.0)
        key = key_at(150)
        store.write(key, 100)
        store.remove(key)
        assert key in store.directory  # grace period
        sim.run(until=31.0)
        assert key not in store.directory
        assert store.ledger.total_removed == 100

    def test_immediate_removal(self):
        ring, sim, store = make_system()
        key = key_at(150)
        store.write(key, 100)
        store.remove(key, delay=0)
        assert key not in store.directory

    def test_double_removal_harmless(self):
        ring, sim, store = make_system()
        key = key_at(150)
        store.write(key, 100)
        store.remove(key, delay=0)
        store.remove(key, delay=0)
        assert store.ledger.total_removed == 100


class TestRemovalRaces:
    """Regressions: the grace-window removal event carries a deadline guard."""

    def test_rewrite_during_grace_window_survives(self):
        ring, sim, store = make_system(removal_delay=30.0)
        key = key_at(150)
        store.write(key, 100)
        store.remove(key)
        sim.run(until=10.0)
        store.write(key, 200)  # rescue: disarms the pending removal
        sim.run(until=100.0)
        assert key in store.directory
        assert store.ledger.total_removed == 0
        assert store.ledger.total_written == 300

    def test_newer_removal_supersedes_older(self):
        ring, sim, store = make_system(removal_delay=30.0)
        key = key_at(150)
        store.write(key, 100)
        store.remove(key)  # deadline t=30
        sim.run(until=10.0)
        store.remove(key)  # deadline t=40 wins
        sim.run(until=35.0)
        assert key in store.directory  # the stale t=30 event no-opped
        sim.run(until=41.0)
        assert key not in store.directory
        assert store.ledger.total_removed == 100  # counted exactly once

    def test_remove_clears_ttl_state(self):
        ring, sim, store = make_system()
        key = key_at(150)
        store.write(key, 100, ttl=50.0)
        store.remove(key, delay=0)
        assert store.expiry_of(key) is None  # no TTL leak for a dead key

    def test_stale_ttl_cannot_kill_rewritten_block(self):
        ring, sim, store = make_system(removal_delay=30.0)
        key = key_at(150)
        store.write(key, 100, ttl=45.0)
        store.remove(key)  # clears TTL state; grace window runs to t=30
        sim.run(until=10.0)
        store.write(key, 100)  # rescued, no TTL
        sim.run(until=1000.0)  # both the t=30 removal and t=45 TTL no-op
        assert key in store.directory
        assert store.ledger.total_removed == 0


class TestStabilizeAfterFlush:
    def test_stabilize_event_after_flush_is_noop(self):
        ring, sim, store = make_system(pointer_stabilization_time=3600.0)
        for t in (150, 155, 160, 165):
            store.write(key_at(t), 1000)
        store.execute_move("n0", key_at(155))
        store.flush_all_pointers()
        migrated = store.ledger.total_migrated
        stabilized = store.pointer_table.stabilized_count
        counted = store.metrics.counter("pointer.stabilized").value
        sim.run(until=7200.0)  # the originally-scheduled events fire now
        assert store.ledger.total_migrated == migrated
        assert store.pointer_table.stabilized_count == stabilized
        assert store.metrics.counter("pointer.stabilized").value == counted


class TestBalanceCoordinatorProtocol:
    def test_primary_load_counts_arc(self):
        ring, sim, store = make_system()
        store.write(key_at(150), 1)
        store.write(key_at(160), 1)
        store.write(key_at(250), 1)
        assert store.primary_load("n1") == 2
        assert store.primary_load("n2") == 1
        assert store.primary_load("n0") == 0

    def test_primary_keys_sorted_in_arc(self):
        ring, sim, store = make_system()
        keys = [key_at(t) for t in (150, 160, 170)]
        for key in keys:
            store.write(key, 1)
        assert list(store.primary_keys("n1")) == keys

    def test_one_node_ring_takes_the_ordinary_path(self):
        """A lone node owns ``(id, id]``, the full ring: its keys come back
        clockwise from just after its own id like any other arc's, not in
        write order, and its load and bytes are the whole directory's."""
        ring, sim, store = make_system(positions=(500,))
        written = [key_at(t) for t in (700, 100, 500, 900, 300)]
        for size, key in enumerate(written, start=1):
            store.write(key, size)
        assert list(store.primary_keys("n0")) == [
            key_at(t) for t in (700, 900, 100, 300, 500)
        ]
        assert store.primary_load("n0") == len(store.directory) == 5
        assert store.primary_bytes() == {"n0": store.directory.total_bytes}
        assert store.total_loads() == {"n0": 5}


class TestMoves:
    def test_move_with_pointers_defers_migration(self):
        ring, sim, store = make_system(pointer_stabilization_time=3600.0)
        keys = [key_at(t) for t in (150, 155, 160, 165)]
        for key in keys:
            store.write(key, 1000)
        # n0 moves to split n1's load.
        split = keys[1]
        store.execute_move("n0", split)
        assert ring.successor(keys[0]) == "n0"
        # Data has NOT moved yet: still physically on n1.
        assert store.physical_holder(keys[0]) == "n1"
        assert store.ledger.total_migrated == 0
        assert store.pointer_block_count() == 2
        # After stabilization the bytes move exactly once.
        sim.run(until=3601.0)
        assert store.physical_holder(keys[0]) == "n0"
        assert store.ledger.total_migrated == 2000
        assert store.pointer_block_count() == 0

    def test_move_without_pointers_migrates_immediately(self):
        ring, sim, store = make_system(use_pointers=False)
        keys = [key_at(t) for t in (150, 155, 160, 165)]
        for key in keys:
            store.write(key, 1000)
        store.execute_move("n0", keys[1])
        assert store.ledger.total_migrated == 2000
        assert store.physical_holder(keys[0]) == "n0"

    def test_pointer_chain_moves_bytes_once(self):
        """B takes from A, D takes from B before stabilizing: bytes move
        directly from A to D, once (the Figure 6 scenario)."""
        ring, sim, store = make_system(
            positions=(100, 200, 300, 400, 500), pointer_stabilization_time=3600.0
        )
        keys = [key_at(t) for t in (150, 155, 160, 165)]
        for key in keys:
            store.write(key, 1000)  # all on n1 (A)
        store.execute_move("n0", keys[1])   # B adopts first half
        store.execute_move("n4", keys[0])   # D adopts B's first key
        sim.run(until=7200.0)
        # Two keys changed owner (150 -> n4, 155 -> n0); each moved exactly
        # once, directly from A, even though responsibility moved twice.
        assert store.ledger.total_migrated == 2000
        assert store.physical_holder(keys[0]) == "n4"
        assert store.physical_holder(keys[1]) == "n0"
        assert store.physical_holder(keys[2]) == "n1"

    def test_writes_after_adoption_cost_nothing(self):
        ring, sim, store = make_system(pointer_stabilization_time=3600.0)
        first = key_at(150)
        store.write(first, 1000)
        second = key_at(152)
        store.write(second, 1000)
        store.execute_move("n0", key_at(155))
        # A write into the adopted range goes straight to the new owner.
        third = key_at(151)
        store.write(third, 1000)
        assert store.physical_holder(third) == "n0"
        sim.run(until=3601.0)
        # Only the two pre-move blocks migrated.
        assert store.ledger.total_migrated == 2000

    def test_vacated_range_handed_to_successor(self):
        ring, sim, store = make_system(pointer_stabilization_time=10.0)
        mine = key_at(50)
        store.write(mine, 777)  # owned by n0 (wrapping arc)
        # Moving forward past n1 hands n0's old arc to n1.
        store.execute_move("n0", key_at(250))
        assert ring.successor(mine) == "n1"
        sim.run(until=11.0)
        assert store.physical_holder(mine) == "n1"
        assert store.ledger.total_migrated == 777

    def test_flush_all_pointers(self):
        ring, sim, store = make_system(pointer_stabilization_time=1e9)
        for t in (150, 155, 160, 165):
            store.write(key_at(t), 10)
        store.execute_move("n0", key_at(155))
        store.flush_all_pointers()
        assert store.pointer_block_count() == 0


class TestReporting:
    def test_primary_loads_sum_to_directory(self):
        ring, sim, store = make_system()
        for t in (50, 150, 250, 350, 450):
            store.write(key_at(t), 1)
        assert sum(store.primary_loads().values()) == len(store.directory)

    def test_total_loads_replicate(self):
        ring, sim, store = make_system(replica_count=3)
        store.write(key_at(150), 1)
        totals = store.total_loads()
        assert sum(totals.values()) == 3  # one block on three nodes

    def test_total_bytes_per_node(self):
        ring, sim, store = make_system(replica_count=2)
        store.write(key_at(150), 500)
        volumes = store.total_bytes_per_node()
        assert sum(volumes.values()) == 1000
        assert volumes["n1"] == 500 and volumes["n2"] == 500


class TestLedger:
    def test_daily_buckets(self):
        ledger = TrafficLedger()
        ledger.record_write(0.0, 100)
        ledger.record_write(SECONDS_PER_DAY + 5, 200)
        ledger.record_migration(SECONDS_PER_DAY + 10, 50)
        series = ledger.daily_series(2)
        assert series[0] == {"day": 1, "written": 100, "removed": 0, "migrated": 0}
        assert series[1] == {"day": 2, "written": 200, "removed": 0, "migrated": 50}

    def test_totals(self):
        ledger = TrafficLedger()
        ledger.record_write(0.0, 100)
        ledger.record_remove(1.0, 40)
        ledger.record_migration(2.0, 70)
        assert (ledger.total_written, ledger.total_removed, ledger.total_migrated) == (100, 40, 70)


class TestTtlExpiry:
    """Section 3: blocks auto-expire after a refreshable TTL."""

    def test_block_expires_after_ttl(self):
        ring, sim, store = make_system()
        key = key_at(150)
        store.write(key, 100, ttl=60.0)
        sim.run(until=59.0)
        assert key in store.directory
        sim.run(until=61.0)
        assert key not in store.directory
        assert store.ledger.total_removed == 100

    def test_refresh_extends_life(self):
        ring, sim, store = make_system()
        key = key_at(150)
        store.write(key, 100, ttl=60.0)
        sim.run(until=50.0)
        assert store.refresh(key, 60.0)
        sim.run(until=100.0)
        assert key in store.directory
        sim.run(until=111.0)
        assert key not in store.directory

    def test_rewrite_refreshes(self):
        ring, sim, store = make_system()
        key = key_at(150)
        store.write(key, 100, ttl=60.0)
        sim.run(until=50.0)
        store.write(key, 100, ttl=60.0)
        sim.run(until=100.0)
        assert key in store.directory

    def test_rewrite_without_ttl_clears_expiry(self):
        ring, sim, store = make_system()
        key = key_at(150)
        store.write(key, 100, ttl=60.0)
        store.write(key, 100)
        sim.run(until=1000.0)
        assert key in store.directory
        assert store.expiry_of(key) is None

    def test_refresh_of_missing_block_fails(self):
        ring, sim, store = make_system()
        assert not store.refresh(key_at(150), 60.0)

    def test_nonpositive_ttl_rejected(self):
        ring, sim, store = make_system()
        with pytest.raises(ValueError):
            store.write(key_at(150), 100, ttl=0.0)

    def test_explicit_remove_beats_ttl(self):
        ring, sim, store = make_system()
        key = key_at(150)
        store.write(key, 100, ttl=1000.0)
        store.remove(key, delay=0)
        sim.run(until=2000.0)
        assert key not in store.directory
        assert store.ledger.total_removed == 100  # not double-counted
