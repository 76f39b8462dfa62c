"""Unit tests for PerformanceHarness internals (fetch latency composition)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.performance import PerformanceHarness, _group_completion
from repro.core.config import D2Config
from repro.core.lookup_cache import AdaptiveSizer
from repro.core.system import build_deployment
from repro.fs.blocks import BLOCK_SIZE
from repro.sim.network import LatencyModel
from tests.oracles import warm_record_per_fetch


@pytest.fixture
def harness():
    deployment = build_deployment("d2", 16, seed=9)
    deployment.bootstrap_volume()
    deployment.apply_fs_ops(deployment.fs.create("/f.dat", size=4 * BLOCK_SIZE))
    latency = LatencyModel.random(deployment.node_names, random.Random(9))
    return deployment, PerformanceHarness(
        deployment,
        latency,
        bandwidth_bps=187_500.0,
        rng=random.Random(9),
    )


class TestFetchLatency:
    def test_buffer_cache_absorbs_repeat(self, harness):
        deployment, h = harness
        key, size = deployment.read_fetches("/f.dat")[1]
        first = h.fetch_latency("alice", key, size, "ident1", now=0.0)
        second = h.fetch_latency("alice", key, size, "ident1", now=1.0)
        assert first > 0.0
        assert second == 0.0

    def test_buffer_cache_expires(self, harness):
        deployment, h = harness
        key, size = deployment.read_fetches("/f.dat")[1]
        h.fetch_latency("alice", key, size, "ident1", now=0.0)
        third = h.fetch_latency("alice", key, size, "ident1", now=100.0)
        assert third > 0.0

    def test_first_fetch_pays_lookup(self, harness):
        deployment, h = harness
        key, size = deployment.read_fetches("/f.dat")[1]
        h.fetch_latency("alice", key, size, "i1", now=0.0)
        assert h.lookup_messages > 0
        assert h.lookups == 1

    def test_cached_range_skips_lookup(self, harness):
        deployment, h = harness
        fetches = deployment.read_fetches("/f.dat")
        h.fetch_latency("alice", fetches[1][0], fetches[1][1], "i1", now=0.0)
        messages_after_first = h.lookup_messages
        # Adjacent block: same owner range, so no routed lookup.
        h.fetch_latency("alice", fetches[2][0], fetches[2][1], "i2", now=0.0)
        assert h.lookup_messages == messages_after_first

    def test_stale_entry_falls_back_to_lookup(self, harness):
        deployment, h = harness
        key, size = deployment.read_fetches("/f.dat")[1]
        client = h.client_for("alice")
        owner = deployment.ring.successor(key)
        lo, hi = deployment.ring.range_of(owner)
        # Poison the cache: the range claims a node that no longer owns it.
        wrong = next(n for n in deployment.node_names if n != owner)
        client.lookup_cache.insert(lo, hi, wrong, now=0.0)
        latency_stale = h.fetch_latency("alice", key, size, "i1", now=0.0)
        # Correctness: the stale entry was detected, invalidated, and a
        # real routed lookup happened; the corrected range is now cached.
        assert client.lookup_cache.stats.stale_hits == 1
        assert h.lookup_messages > 0
        assert client.lookup_cache.probe(key, now=0.1) == owner
        assert latency_stale > 0.0

    def test_server_contention_serializes(self, harness):
        deployment, h = harness
        key, size = deployment.read_fetches("/f.dat")[1]
        # Thirty users request the same block at the same instant: the
        # three replica uplinks must queue, so later arrivals wait for a
        # backlog many transfer-times deep.
        latencies = [
            h.fetch_latency(f"u{i}", key, size, f"i{i}", now=0.0)
            for i in range(30)
        ]
        transfer_time = size / h.bandwidth
        assert max(latencies) > min(latencies) + 3 * transfer_time

    def test_warm_connection_faster(self, harness):
        deployment, h = harness
        key, size = deployment.read_fetches("/f.dat")[1]
        cold = h.fetch_latency("alice", key, size, "i1", now=0.0)
        # Immediately fetch another block from the same replica group.
        key2, size2 = deployment.read_fetches("/f.dat")[2]
        warm = h.fetch_latency("alice", key2, size2, "i2", now=cold + 0.01)
        assert warm <= cold


class TestWarmAccess:
    def test_warm_populates_caches_without_messages(self, harness):
        deployment, h = harness
        fetches = deployment.read_fetches("/f.dat")
        h.warm_record("alice", fetches, now=0.0)
        assert h.lookup_messages == 0
        client = h.client_for("alice")
        assert set(client.buffer_cache) == {(key, position) for position, (key, _) in enumerate(fetches)}
        for key, _ in fetches:
            assert client.lookup_cache.probe(key, now=1.0) == deployment.ring.successor(key)


FILE_SIZES = (300, 3 * BLOCK_SIZE, 12 * BLOCK_SIZE, 40 * BLOCK_SIZE + 17)
USERS = ("alice", "bob")
# (user, file, first block, blocks, seconds since the last step); 30 s is
# the buffer cache's lifetime.
READ_STEP = st.tuples(st.just("read"), st.sampled_from(USERS),
                      st.integers(0, len(FILE_SIZES) - 1), st.integers(0, 12),
                      st.integers(0, 6), st.floats(0.0, 60.0))
WARM_STEPS = st.lists(
    st.one_of(
        READ_STEP, READ_STEP, READ_STEP,
        # a stale entry: the owner's arc of one of the file's keys, claimed
        # by its successor
        st.tuples(st.just("poison"), st.sampled_from(USERS),
                  st.integers(0, len(FILE_SIZES) - 1), st.integers(0, 40)),
        # a node moves onto one of the file's keys, splitting an arc the
        # caches may hold: later inserts overlap the entries from before
        st.tuples(st.just("move"), st.integers(0, 15),
                  st.integers(0, len(FILE_SIZES) - 1), st.integers(0, 40)),
        # past the cache TTL (4500 s): every entry lapses
        st.tuples(st.just("expire"), st.floats(4500.0, 9000.0)),
    ),
    min_size=4,
    max_size=40,
)


def warm_side(system, caches):
    deployment = build_deployment(system, 16, seed=5)
    deployment.bootstrap_volume()
    deployment.apply_fs_ops(deployment.fs.makedirs("/w"))
    for index, size in enumerate(FILE_SIZES):
        deployment.apply_fs_ops(deployment.fs.create(f"/w/f{index}", size=size))
    for user in USERS:
        cache = deployment.lookup_cache_for(user)
        if caches == "bounded":
            cache.capacity = 3
        elif caches == "sized":
            cache.attach_sizer(AdaptiveSizer(window=6, min_capacity=2, target_hit_rate=0.6))
    latency = LatencyModel.random(deployment.node_names, random.Random(5))
    return PerformanceHarness(deployment, latency, bandwidth_bps=187_500.0,
                              rng=random.Random(5))


def warm_state(harness):
    deployment = harness.deployment
    clients = {
        user: (client.lookup_cache.entries(), client.lookup_cache.stats,
               client.lookup_cache.capacity, client.lookup_cache.ttl,
               dict(client.buffer_cache))
        for user, client in harness.clients.items()
    }
    return clients, deployment.metrics.snapshot()["counters"], deployment.tracer.counts()


class TestWarmRecord:
    """``warm_record`` against the per-fetch loop it replaced
    (``tests.oracles.warm_record_per_fetch``): two deployments built alike
    take the same steps, one warming each record in one call and the other
    fetch by fetch, and must agree on every cache entry, per-client and
    shared counter, event count and buffer cache after every step."""

    @settings(max_examples=150, deadline=None)
    @given(system=st.sampled_from(["d2", "traditional", "traditional-file"]),
           caches=st.sampled_from(["unbounded", "bounded", "sized"]),
           steps=WARM_STEPS)
    def test_record_form_leaves_the_per_fetch_state(self, system, caches, steps):
        record, per_fetch = warm_side(system, caches), warm_side(system, caches)
        now = 0.0
        for step, *args in steps:
            for harness in (record, per_fetch):
                deployment = harness.deployment
                ring = deployment.ring
                if step == "read":
                    user, file, first, blocks, dt = args
                    fetches = deployment.read_fetches(
                        f"/w/f{file}", first * BLOCK_SIZE, blocks * BLOCK_SIZE)
                    at = now + dt
                    if harness is record:
                        harness.warm_record(user, fetches, at)
                    else:
                        warm_record_per_fetch(harness, user, fetches, at)
                elif step in ("poison", "move"):
                    fetches = deployment.read_fetches(f"/w/f{args[1]}")
                    key = fetches[args[2] % len(fetches)][0]
                    owner = ring.successor(key)
                    if step == "poison":
                        cache = harness.client_for(args[0]).lookup_cache
                        cache.insert(*ring.range_of(owner), ring.successor_of(owner), now)
                    elif not ring.occupied(key):
                        ring.change_position(deployment.node_names[args[0]], key)
            if step == "read":
                now += args[-1]
            elif step == "expire":
                now += args[0]
            assert warm_state(record) == warm_state(per_fetch), (step, args)

    def test_node_moved_into_a_cached_arc(self):
        # The arc a whole file was cached under is split by a node moving
        # onto the file's middle key: both halves are then answered by
        # entries whose arcs are not their owners' ranges, or overlap.
        record, per_fetch = warm_side("d2", "unbounded"), warm_side("d2", "unbounded")
        for harness in (record, per_fetch):
            deployment, ring = harness.deployment, harness.deployment.ring
            fetches = deployment.read_fetches("/w/f3")
            warm = harness.warm_record if harness is record else (
                lambda *args: warm_record_per_fetch(harness, *args))
            warm("alice", fetches, 0.0)
            middle = fetches[len(fetches) // 2][0]
            mover = next(name for name in deployment.node_names
                         if name not in ring.successors(middle, 2))
            ring.change_position(mover, middle)
            warm("alice", fetches, 100.0)
        assert warm_state(record) == warm_state(per_fetch)
        cache = record.client_for("alice").lookup_cache
        assert len(cache) >= 2
        assert cache.probe(fetches[0][0], 101.0) == record.deployment.ring.successor(fetches[0][0])


class TestGroupCompletion:
    def config(self, cap=15):
        return D2Config(max_concurrent_transfers=cap)

    def test_seq_sums(self):
        assert _group_completion([1.0, 2.0, 3.0], "seq", self.config()) == 6.0

    def test_para_takes_max_under_cap(self):
        assert _group_completion([1.0, 2.0, 3.0], "para", self.config()) == 3.0

    def test_para_waves_beyond_cap(self):
        latencies = [1.0] * 20
        assert _group_completion(latencies, "para", self.config(cap=15)) == 2.0

    def test_empty(self):
        assert _group_completion([], "seq", self.config()) == 0.0
