"""Integration tests for the Deployment facade."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import D2Config
from repro.core.system import SYSTEMS, build_deployment
from repro.fs.blocks import BLOCK_SIZE
from repro.fs.keyschemes import make_scheme
from repro.fs.namespace import NamespaceError
from repro.workloads.trace import READ, CREATE, TraceRecord


class TestConstruction:
    def test_all_systems_build(self):
        for system in SYSTEMS:
            d = build_deployment(system, 8, seed=1)
            assert len(d.ring) == 8

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            build_deployment("pastry", 8)

    def test_balancer_only_for_balancing_systems(self):
        assert build_deployment("d2", 8).balancer is not None
        assert build_deployment("traditional+merc", 8).balancer is not None
        assert build_deployment("traditional", 8).balancer is None
        assert build_deployment("traditional-file", 8).balancer is None

    def test_balancing_disabled_by_config(self):
        config = D2Config(active_load_balancing=False)
        assert build_deployment("d2", 8, config=config).balancer is None


class TestVolumeLifecycle:
    def test_bootstrap_and_create(self, d2_deployment):
        d2_deployment.bootstrap_volume()
        d2_deployment.apply_fs_ops(d2_deployment.fs.makedirs("/home/alice"))
        d2_deployment.apply_fs_ops(
            d2_deployment.fs.create("/home/alice/f.dat", size=3 * BLOCK_SIZE)
        )
        assert len(d2_deployment.store.directory) > 3

    def test_read_fetches_locality(self, d2_deployment):
        """The headline property: one file's fetches hit <= r nodes."""
        d2_deployment.bootstrap_volume()
        d2_deployment.apply_fs_ops(d2_deployment.fs.makedirs("/home/alice"))
        d2_deployment.apply_fs_ops(
            d2_deployment.fs.create("/home/alice/f.dat", size=10 * BLOCK_SIZE)
        )
        fetches = d2_deployment.read_fetches("/home/alice/f.dat")
        owners = {d2_deployment.ring.successor(key) for key, _ in fetches}
        assert len(owners) <= d2_deployment.config.replica_count

    def test_traditional_read_scatters(self):
        d = build_deployment("traditional", 24, seed=5)
        d.bootstrap_volume()
        d.apply_fs_ops(d.fs.makedirs("/home/alice"))
        d.apply_fs_ops(d.fs.create("/home/alice/f.dat", size=10 * BLOCK_SIZE))
        fetches = d.read_fetches("/home/alice/f.dat")
        owners = {d.ring.successor(key) for key, _ in fetches}
        assert len(owners) > 3

    def test_traditional_file_single_owner(self):
        d = build_deployment("traditional-file", 24, seed=5)
        d.bootstrap_volume()
        d.apply_fs_ops(d.fs.create("/f.dat", size=10 * BLOCK_SIZE))
        fetches = d.read_fetches("/f.dat")
        owners = {d.ring.successor(key) for key, _ in fetches}
        assert len(owners) == 1


class TestBatchedReads:
    def _populate(self, d):
        d.bootstrap_volume()
        d.apply_fs_ops(d.fs.makedirs("/home/alice"))
        d.apply_fs_ops(d.fs.create("/home/alice/big.dat", size=10 * BLOCK_SIZE))
        d.apply_fs_ops(d.fs.create("/home/alice/tiny.dat", size=100))

    def test_many_matches_singles(self, d2_deployment):
        """read_fetches_many is exactly [read_fetches(*r) for r in reqs]."""
        self._populate(d2_deployment)
        requests = [
            ("/home/alice/big.dat", 0, None),
            ("/home/alice/big.dat", BLOCK_SIZE * 3, BLOCK_SIZE),
            ("/home/alice/tiny.dat", 0, None),
            ("/home/alice/big.dat", 0, 1),
        ]
        batched = d2_deployment.read_fetches_many(requests)
        singles = [
            d2_deployment.read_fetches(path, offset, length)
            for path, offset, length in requests
        ]
        assert batched == singles

    def test_many_matches_singles_all_systems(self):
        for system in ("d2", "traditional", "traditional-file"):
            d = build_deployment(system, 16, seed=3)
            self._populate(d)
            requests = [("/home/alice/big.dat", 0, None)] * 2
            assert d.read_fetches_many(requests) == [
                d.read_fetches("/home/alice/big.dat") for _ in range(2)
            ]

    def test_interned_maker_survives_rename(self, d2_deployment):
        """Keys depend only on (slot_path, overflow), which rename
        preserves — so fetches are identical before and after."""
        self._populate(d2_deployment)
        before = d2_deployment.read_fetches("/home/alice/big.dat")
        d2_deployment.apply_fs_ops(
            d2_deployment.fs.rename("/home/alice/big.dat", "/home/alice/moved.dat")
        )
        assert d2_deployment.read_fetches("/home/alice/moved.dat") == before

    def test_empty_batch(self, d2_deployment):
        self._populate(d2_deployment)
        assert d2_deployment.read_fetches_many([]) == []

    @pytest.mark.parametrize("system", SYSTEMS)
    @settings(deadline=None, max_examples=40)
    @given(requests=st.lists(
        st.tuples(
            st.sampled_from(["/home/alice/big.dat", "/home/alice/tiny.dat",
                             "/home/alice/edge.dat"]),
            st.integers(0, 12 * BLOCK_SIZE),
            st.one_of(st.none(), st.integers(0, 12 * BLOCK_SIZE)),
        ),
        max_size=30,
    ).flatmap(lambda distinct: st.lists(st.sampled_from(distinct), max_size=90)
              if distinct else st.just([])))
    def test_many_matches_singles_with_repeats(self, system, requests):
        """Each distinct request of a batch is keyed once; every result is
        still exactly what read_fetches returns for its triple."""
        d = _populated(system)
        assert d.read_fetches_many(requests) == [
            d.read_fetches(*request) for request in requests
        ]

    def test_results_are_not_aliased(self, d2_deployment):
        self._populate(d2_deployment)
        request = ("/home/alice/big.dat", 0, 3 * BLOCK_SIZE)
        first, second, third = d2_deployment.read_fetches_many([request] * 3)
        expected = list(first)
        first.append(("mine", 0))
        del second[:]
        assert third == expected
        assert d2_deployment.read_fetches(*request) == expected

    def test_any_iterable_of_sequences(self, d2_deployment):
        self._populate(d2_deployment)
        expected = [d2_deployment.read_fetches("/home/alice/big.dat", 0, 10)] * 2
        as_lists = [["/home/alice/big.dat", 0, 10]] * 2
        assert d2_deployment.read_fetches_many(as_lists) == expected
        assert d2_deployment.read_fetches_many(r for r in as_lists) == expected

    def test_missing_path_raises_repeated_or_not(self, d2_deployment):
        self._populate(d2_deployment)
        good = ("/home/alice/big.dat", 0, None)
        ghost = ("/home/alice/ghost", 0, None)
        for batch in ([good, ghost], [good, ghost, ghost], [ghost, good, ghost]):
            with pytest.raises(NamespaceError):
                d2_deployment.read_fetches_many(batch)

    @pytest.mark.parametrize("name", ["big.dat", "tiny.dat"])
    @pytest.mark.parametrize("offset,length", [(-5, 10), (0, -1), (-1, None), (-1, -1)])
    def test_negative_range_rejected_for_every_size(self, d2_deployment, name,
                                                    offset, length):
        """A negative offset or length is an error on inline files too, and
        never "whole file"; 0 / None still mean whole file."""
        self._populate(d2_deployment)
        path = f"/home/alice/{name}"
        with pytest.raises(ValueError):
            d2_deployment.read_fetches(path, offset, length)
        with pytest.raises(ValueError):
            d2_deployment.read_fetches_many([(path, 0, None), (path, offset, length)])
        whole = d2_deployment.read_fetches(path)
        assert d2_deployment.read_fetches(path, 0, 0) == whole
        assert d2_deployment.read_fetches_many([(path, 0, 0), (path, 0, None)]) == [whole] * 2

    def test_nothing_outlives_a_batch(self, d2_deployment):
        """A write, a rename and a delete-and-recreate in the same slot
        between two batches are all seen by the second."""
        d = d2_deployment
        self._populate(d)
        big, tiny = "/home/alice/big.dat", "/home/alice/tiny.dat"
        batch = [(big, 0, None), (tiny, 0, None), (big, 0, None)]
        before = d.read_fetches_many(batch)

        d.apply_fs_ops(d.fs.write(big, BLOCK_SIZE, 10))  # re-versions block 2
        after_write = d.read_fetches_many(batch)
        assert after_write == [d.read_fetches(*request) for request in batch]
        changed = [i for i, (old, new) in enumerate(zip(before[0], after_write[0]))
                   if old != new]
        assert changed == [0, 2]  # the inode and the rewritten block
        assert after_write[1] == before[1]

        d.apply_fs_ops(d.fs.rename(big, "/home/alice/moved.dat"))
        with pytest.raises(NamespaceError):
            d.read_fetches_many(batch)
        moved = [("/home/alice/moved.dat", 0, None)]
        assert d.read_fetches_many(moved) == [after_write[0]]  # rename keeps keys

        tiny_node = d.fs.namespace.resolve_file(tiny)
        identity = (tiny_node.slot_path, tiny_node.overflow)
        d.apply_fs_ops(d.fs.remove(tiny))
        d.apply_fs_ops(d.fs.create(tiny, size=3 * BLOCK_SIZE))
        reborn = d.fs.namespace.resolve_file(tiny)
        assert (reborn.slot_path, reborn.overflow) == identity
        (fetches,) = d.read_fetches_many([(tiny, 0, None)])
        assert len(fetches) == 4 and fetches != before[1]
        fresh = make_scheme("d2", "vol")  # no memo: the slot's prefix is the same
        assert [key for key, _ in fetches] == [
            fresh.file_block_key(reborn, 0, reborn.version),
            *fresh.file_block_keys(reborn, range(1, 4)),
        ]


@functools.lru_cache(maxsize=None)
def _populated(system):
    """One read-only deployment per system, shared by Hypothesis examples."""
    d = build_deployment(system, 16, seed=3)
    TestBatchedReads()._populate(d)
    d.apply_fs_ops(d.fs.create("/home/alice/edge.dat", size=2 * BLOCK_SIZE))
    d.apply_fs_ops(d.fs.write("/home/alice/big.dat", 3 * BLOCK_SIZE, BLOCK_SIZE + 1))
    return d


class TestReplay:
    def test_read_record(self, d2_deployment, tiny_trace):
        d2_deployment.load_initial_image(tiny_trace)
        path, size = tiny_trace.initial_files[0]
        outcome = d2_deployment.replay_record(
            TraceRecord(0.0, "u", READ, path, offset=0, length=size)
        )
        assert not outcome.skipped
        assert outcome.fetches
        assert outcome.files == 1

    def test_missing_path_skipped(self, d2_deployment):
        d2_deployment.bootstrap_volume()
        outcome = d2_deployment.replay_record(TraceRecord(0.0, "u", READ, "/ghost"))
        assert outcome.skipped

    def test_create_record_stores_blocks(self, d2_deployment):
        d2_deployment.bootstrap_volume()
        outcome = d2_deployment.replay_record(
            TraceRecord(0.0, "u", CREATE, "/new.dat", size=2 * BLOCK_SIZE)
        )
        assert len(outcome.stores) == 3  # 2 data + inode
        assert not outcome.skipped

    def test_full_trace_replay(self, d2_deployment, tiny_trace):
        d2_deployment.load_initial_image(tiny_trace)
        d2_deployment.stabilize()
        skipped = 0
        for record in tiny_trace.records:
            d2_deployment.advance_to(record.time)
            skipped += d2_deployment.replay_record(record).skipped
        assert skipped / max(len(tiny_trace), 1) < 0.06


class TestBalancingIntegration:
    def test_stabilize_balances(self, tiny_trace):
        d = build_deployment("d2", 24, seed=2)
        d.load_initial_image(tiny_trace)
        from repro.dht.load_balance import normalized_std_dev

        before = normalized_std_dev(list(d.store.primary_loads().values()))
        rounds = d.stabilize()
        after = normalized_std_dev(list(d.store.primary_loads().values()))
        assert rounds > 0
        assert after < before

    def test_stabilize_noop_without_balancer(self, tiny_trace):
        d = build_deployment("traditional", 24, seed=2)
        d.load_initial_image(tiny_trace)
        assert d.stabilize() == 0

    def test_periodic_balancing_runs(self, tiny_trace):
        d = build_deployment("d2", 24, seed=2)
        d.load_initial_image(tiny_trace)
        d.start_periodic_balancing()
        d.advance_to(d.config.probe_interval * 3)
        assert d.balancer.stats.probes > 0
        d.stop_periodic_balancing()
        probes = d.balancer.stats.probes
        d.advance_to(d.config.probe_interval * 10)
        assert d.balancer.stats.probes == probes

    def test_describe(self, d2_deployment):
        d2_deployment.bootstrap_volume()
        info = d2_deployment.describe()
        assert info["system"] == "d2"
        assert info["nodes"] == 24

    def test_lookup_cache_per_client(self, d2_deployment):
        a = d2_deployment.lookup_cache_for("alice")
        b = d2_deployment.lookup_cache_for("bob")
        assert a is not b
        assert d2_deployment.lookup_cache_for("alice") is a
