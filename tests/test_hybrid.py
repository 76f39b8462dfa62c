"""Tests for the hybrid replica-placement extension."""

import random

import pytest

from repro.core.hybrid import (
    arc_capture_exposure,
    hybrid_replica_nodes,
    parallel_read_fanout,
    placement_holders,
    secondary_positions,
)
from repro.core.system import build_deployment
from repro.dht.consistent_hashing import random_node_ids
from repro.dht.keyspace import KEY_SPACE
from repro.dht.ring import Ring
from tests.oracles import key_available_hybrid


@pytest.fixture
def ring():
    ring = Ring()
    rng = random.Random(4)
    for i, node_id in enumerate(random_node_ids(20, rng)):
        ring.join(f"n{i}", node_id)
    return ring


class TestSecondaryPositions:
    def test_count(self):
        assert len(secondary_positions(123, 3)) == 2
        assert secondary_positions(123, 1) == []

    def test_deterministic_and_distinct(self):
        a = secondary_positions(123, 4)
        assert a == secondary_positions(123, 4)
        assert len(set(a)) == 3

    def test_keys_differ(self):
        assert secondary_positions(1, 3) != secondary_positions(2, 3)


class TestHybridReplicaNodes:
    def test_primary_is_successor(self, ring):
        holders = hybrid_replica_nodes(ring, 42, 3)
        assert holders[0] == ring.successor(42)

    def test_distinct_holders(self, ring):
        holders = hybrid_replica_nodes(ring, 42, 3)
        assert len(set(holders)) == 3

    def test_capped_by_ring_size(self):
        ring = Ring()
        ring.join("a", 1)
        ring.join("b", 2)
        assert len(hybrid_replica_nodes(ring, 42, 5)) == 2

    def test_secondaries_differ_from_locality(self, ring):
        """Across many keys, hybrid secondaries must not equal the
        consecutive-successor groups."""
        rng = random.Random(0)
        differs = 0
        for _ in range(20):
            key = rng.randrange(KEY_SPACE)
            if hybrid_replica_nodes(ring, key, 3) != ring.successors(key, 3):
                differs += 1
        assert differs > 10

    def test_invalid_args(self, ring):
        with pytest.raises(ValueError):
            hybrid_replica_nodes(ring, 42, 0)
        with pytest.raises(ValueError):
            hybrid_replica_nodes(ring, 42, 3, mode="magic")

    def test_rank_mode_survives_clustered_ids(self):
        """The degenerate case: all node IDs inside one small arc."""
        ring = Ring()
        base = KEY_SPACE // 2
        for i in range(16):
            ring.join(f"n{i}", base + i * 1000)
        # One file's blocks: all inside a single node's arc, as a fresh
        # large-file insert would be.
        keys = [base + 100 + i for i in range(30)]
        rank_fanout = parallel_read_fanout(ring, keys, 3, placement="hybrid")
        naive_fanout = parallel_read_fanout(ring, keys, 3, placement="hybrid-position")
        assert rank_fanout >= 10
        # Naive position hashing collapses: almost every uniform hash lands
        # in the giant empty arc and resolves to its single owner.
        assert naive_fanout <= 4


class TestPlacementHolders:
    def test_locality_matches_ring(self, ring):
        assert placement_holders(ring, 42, 3, "locality") == ring.successors(42, 3)

    def test_unknown_rejected(self, ring):
        with pytest.raises(ValueError):
            placement_holders(ring, 42, 3, "chord")


class TestAvailability:
    def test_available_while_any_holder_up(self, ring):
        holders = hybrid_replica_nodes(ring, 42, 3)
        assert key_available_hybrid(ring, 42, 3, alive={holders[2]})
        assert not key_available_hybrid(ring, 42, 3, alive=set())

    def test_capture_exposure_bounds(self, ring):
        rng = random.Random(1)
        keys = [random.Random(2).randrange(KEY_SPACE) for _ in range(50)]
        for placement in ("locality", "hybrid"):
            exposure = arc_capture_exposure(
                ring, keys, 3, placement=placement, arc_nodes=3,
                trials=50, rng=rng,
            )
            assert 0.0 <= exposure <= 1.0


class TestEndToEnd:
    def test_hybrid_on_real_deployment(self):
        d = build_deployment("d2", 32, seed=3)
        d.bootstrap_volume()
        d.apply_fs_ops(d.fs.create("/big.bin", size=30 * 8192))
        keys = [k for k, _ in d.read_fetches("/big.bin")]
        locality = parallel_read_fanout(d.ring, keys, 3, placement="locality")
        hybrid = parallel_read_fanout(d.ring, keys, 3, placement="hybrid")
        assert hybrid > locality
