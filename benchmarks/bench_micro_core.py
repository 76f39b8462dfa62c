"""Microbenchmarks of the hot-path data structures.

Unlike the experiment benches (single-shot simulations), these use
pytest-benchmark's statistical timing: they are the operations the
simulators execute millions of times, so their throughput bounds how far
the reproduction can scale.
"""

import gc
import os
import random
import statistics
import sys
import time
from collections import deque
from types import SimpleNamespace

import pytest

from benchmarks.callcount import CallCounter
from repro.core import lookup_cache
from repro.core import system as core_system
from repro.core.keys import encode_path_key, version_hash, volume_id
from repro.core.lookup_cache import CacheEntry, LookupCache
from repro.core.system import build_deployment
from repro.dht import routing
from repro.dht.consistent_hashing import random_node_ids
from repro.dht.keyspace import KEY_SPACE
from repro.dht.ring import Ring
from repro.dht.routing import route
from repro.fs import keyschemes, namespace
from repro.fs.blocks import BLOCK_SIZE
from repro.fs.fslayer import DhtFileSystem, apply_ops
from repro.fs.keyschemes import D2KeyScheme
from repro.fs.namespace import FileNode, Namespace
from repro.sim.engine import Simulator
from repro.store import block_store
from repro.store.block_store import BlockDirectory
from repro.store.migration import GraceEntry, StorageCoordinator
from repro.workloads.trace import READ, Trace, TraceRecord
from tests.oracles import (
    PerKeyCoordinator,
    ResortingDirectory,
    ScanLookupCache,
    apply_ops_per_key,
    decode_key,
    firing_sequence,
    read_stream_per_op,
)

VOL = volume_id("bench")


def build_ring(n, seed=0):
    ring = Ring()
    rng = random.Random(seed)
    for i, node_id in enumerate(random_node_ids(n, rng)):
        ring.join(f"n{i}", node_id)
    return ring, rng


def test_ring_successor_lookup(benchmark):
    ring, rng = build_ring(1000)
    keys = [rng.randrange(KEY_SPACE) for _ in range(512)]

    def lookup_many():
        for key in keys:
            ring.successor(key)

    benchmark(lookup_many)


def test_ring_replica_group_lookup(benchmark):
    """Replay hot path: replica-group resolution for a recurring key set.

    Replay loops resolve the same block keys over and over between
    membership changes, which is exactly what the version-keyed successor
    memo accelerates."""
    ring, rng = build_ring(1000)
    keys = [rng.randrange(KEY_SPACE) for _ in range(512)]

    def group_many():
        for key in keys:
            ring.successors(key, 4)

    benchmark(group_many)


def test_routing_hops(benchmark):
    ring, rng = build_ring(1000)
    keys = [rng.randrange(KEY_SPACE) for _ in range(64)]

    def route_many():
        for key in keys:
            route(ring, "n0", key)

    benchmark(route_many)


@pytest.mark.parametrize("how", ["full", "memoised-prefix"])
def test_key_encode(benchmark, how):
    """One block key per file: the full Figure-4 re-encode against the
    scheme's path (prefix memoised per storage identity + field fill)."""
    paths = [(i % 64 + 1, i % 32 + 1, i % 16 + 1) for i in range(256)]
    scheme = D2KeyScheme("bench")
    nodes = [FileNode(name="f", slot_path=path, overflow=()) for path in paths]

    def encode_many():
        for path in paths:
            encode_path_key(VOL, path, block_number=3, version=version_hash(7))

    def compose_many():
        for node in nodes:
            scheme.file_block_key(node, 3, 7)

    assert [scheme.file_block_key(node, 3, 7) for node in nodes] == [
        encode_path_key(VOL, path, block_number=3, version=version_hash(7))
        for path in paths
    ]
    benchmark(encode_many if how == "full" else compose_many)


def test_key_decode(benchmark):
    keys = [
        encode_path_key(VOL, (i % 64 + 1, i % 32 + 1), block_number=i, version=i)
        for i in range(256)
    ]

    def decode_many():
        for key in keys:
            decode_key(key)

    benchmark(decode_many)


def paired_ratios(slow, fast, pairs=15):
    """``slow() / fast()`` CPU seconds, interleaved, with the collector off:
    a spell of host contention or a full collection then moves one pair's
    ratio, not the median's."""
    ratios = []
    gc.disable()
    try:
        for _ in range(pairs):
            seconds = []
            for fn in (slow, fast):
                gc.collect()
                started = time.process_time()
                fn()
                seconds.append(time.process_time() - started)
            ratios.append(seconds[0] / seconds[1])
    finally:
        gc.enable()
    return ratios


def test_directory_range_queries(benchmark):
    """The read-only case: no mutation, so the index is built exactly once."""
    rng = random.Random(1)
    directory = BlockDirectory()
    directory.put_many([(rng.randrange(KEY_SPACE), 8192) for _ in range(20_000)])
    arcs = [(rng.randrange(KEY_SPACE), rng.randrange(KEY_SPACE)) for _ in range(256)]

    def query_many():
        for lo, hi in arcs:
            directory.count_in_range(lo, hi)

    benchmark(query_many)


def test_ordered_index_directory_gate(monkeypatch):
    """Shape gate: the directory's sorted index is patched, not re-sorted.

    A balancing round of ``write-balance`` changes ~1 % of the keys and then
    asks every node's load.  Counted first: 50 rounds of {200 mutations, 96
    ``count_in_range``} on a 20 000-key directory call ``sorted`` zero times
    once the index is built, and a bulk load of 20 000 keys followed by one
    query calls it exactly once.  Then on the clock (median of 15 paired
    ratios; measured 5.8-7.2x): the same rounds must beat a directory that
    re-sorts after any change by >= 2x.
    """
    sorts = []
    monkeypatch.setattr(
        block_store, "sorted", lambda keys: sorts.append(1) or sorted(keys), raising=False
    )
    rng = random.Random(5)
    image = [rng.randrange(KEY_SPACE) for _ in range(20_000)]
    arcs = [(rng.randrange(KEY_SPACE), rng.randrange(KEY_SPACE)) for _ in range(96)]

    def balancing_rounds(cls):
        directory, live, fresh = cls(), deque(image), random.Random(9)
        directory.put_many([(key, 8192) for key in image])
        assert directory.count_in_range(0, 0) == len(image)

        def rounds():
            """Each round retires the 100 oldest keys and writes 100 new."""
            loads = []
            for _ in range(50):
                for _ in range(100):
                    directory.discard(live.popleft())
                    live.append(fresh.randrange(KEY_SPACE))
                    directory.put_many(((live[-1], 8192),))
                loads.append([directory.count_in_range(lo, hi) for lo, hi in arcs])
            return loads

        return rounds

    patched = balancing_rounds(BlockDirectory)
    assert len(sorts) == 1, f"{len(sorts)} sorts for a bulk load and one query"
    loads = patched()
    assert len(sorts) == 1, f"{len(sorts) - 1} re-sorts in 50 rounds of 1 % changes"
    resorted = balancing_rounds(ResortingDirectory)
    assert resorted() == loads and len(sorts) == 1 + 1 + 50

    gain = paired_ratios(resorted, patched)
    assert statistics.median(gain) > 2, (
        f"patching the sorted index no longer beats re-sorting it: "
        f"re-sort / patch = {sorted(gain)}"
    )


def disjoint_cache(cls):
    cache = cls(ttl=1e9)
    ring, _ = build_ring(500, seed=2)
    for name in list(ring.names())[:250]:
        lo, hi = ring.range_of(name)
        cache.insert(lo, hi, name, now=0.0)
    return cache


def test_ordered_index_cache_gate(monkeypatch):
    """Shape gate: a probe bisects the cache, it does not scan it.

    Counted through a double of ``CacheEntry`` that notes which entries had
    an attribute read: each of 512 probes of a 250-entry cache of disjoint
    arcs touches at most 2 entries (the one at the bisect point and the one
    arc that wraps), where the scan touches all 250.  Then on the clock
    (median of 15 paired ratios; measured 30-39x): the probe loop must beat
    the scan kept in ``tests/oracles.py`` by >= 5x.
    """
    touched = set()

    class WatchedEntry(CacheEntry):
        def __getattribute__(self, name):
            touched.add(id(self))
            return object.__getattribute__(self, name)

    rng = random.Random(2)
    keys = [rng.randrange(KEY_SPACE) for _ in range(512)]
    with monkeypatch.context() as patch:
        patch.setattr(lookup_cache, "CacheEntry", WatchedEntry)
        watched, scanned = disjoint_cache(LookupCache), disjoint_cache(ScanLookupCache)
    most = {}
    for cache in (watched, scanned):
        counts = []
        for key in keys:
            touched.clear()
            cache.probe(key, now=1.0)
            counts.append(len(touched))
        most[type(cache).__name__] = max(counts)
    assert most == {"LookupCache": 2, "ScanLookupCache": 250}, most
    assert watched.stats == scanned.stats and 0 < watched.stats.hits < 512

    bisecting, scanning = disjoint_cache(LookupCache), disjoint_cache(ScanLookupCache)

    def probe_many(cache):
        for key in keys:
            cache.probe(key, now=1.0)

    gain = paired_ratios(lambda: probe_many(scanning), lambda: probe_many(bisecting))
    assert statistics.median(gain) > 5, (
        f"probing no longer beats the linear scan: scan / bisect = {sorted(gain)}"
    )


def test_lookup_cache_probe(benchmark):
    rng = random.Random(2)
    cache = disjoint_cache(LookupCache)
    keys = [rng.randrange(KEY_SPACE) for _ in range(512)]

    def probe_many():
        for key in keys:
            cache.probe(key, now=1.0)

    benchmark(probe_many)


def test_read_batch_sharing_gate(monkeypatch):
    """Shape gate on both sides of the per-batch request dedup.

    ``read_fetches_many`` resolves, sizes and keys once per distinct
    ``(path, offset, length)`` of the batch.  The loop it is held to plans
    every request afresh (a resolve and a ``DhtFileSystem.read_fetches``
    each), as ``Deployment.read_fetches`` does before its plan memo is warm.
    Counted, not timed: a batch of 4096 requests over 64 distinct ones makes
    at most 64 ``Namespace.resolve_file`` / ``DhtFileSystem.read_fetches``
    calls where the loop makes 4096, and an all-distinct batch makes one
    per request either way.  On the clock (median of 15 paired ratios;
    measured 20-23x and 1.03-1.07x), the shared batch must beat the loop by
    >= 2x, and the all-distinct batch must not pay for the dedup: no slower
    than 1.1x that loop.
    """
    deployment = build_deployment("d2", 16, seed=4)
    deployment.bootstrap_volume()
    deployment.apply_fs_ops(deployment.fs.makedirs("/data"))
    paths = [f"/data/f{index:02d}" for index in range(64)]
    for path in paths:
        deployment.apply_fs_ops(deployment.fs.create(path, size=12 * BLOCK_SIZE))
    rng = random.Random(7)
    shared = [(rng.choice(paths), 0, None) for _ in range(4096)]
    distinct = [(path, 1000 * step, None) for path in paths for step in range(64)]
    assert len(set(shared)) <= 64 and len(set(distinct)) == 4096

    def plan(path, offset, length):
        return deployment.fs.read_fetches(
            deployment.fs.namespace.resolve_file(path), offset, length)

    def loop(requests):
        return [plan(*request) for request in requests]

    cases = (
        lambda: loop(shared),
        lambda: deployment.read_fetches_many(shared),
        lambda: loop(distinct),
        lambda: deployment.read_fetches_many(distinct),
    )
    assert cases[0]() == cases[1]() and cases[2]() == cases[3]()

    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    with monkeypatch.context() as patch:
        for owner, name in ((Namespace, "resolve_file"), (DhtFileSystem, "read_fetches")):
            patch.setattr(owner, name, counted(name, getattr(owner, name)))
        counts = []
        for fn in cases:
            del calls[:]
            fn()
            counts.append((calls.count("resolve_file"), calls.count("read_fetches")))
    assert counts[0] == counts[2] == counts[3] == (4096, 4096), counts
    assert max(counts[1]) <= 64, (
        f"(resolve_file, fs.read_fetches) calls per 4096-request batch (shared "
        f"loop, shared batch, distinct loop, distinct batch): {counts}"
    )

    # A full collection over the 50 k tuples a case allocates is the other
    # thing paired_ratios keeps out of the median.
    shared_gain = paired_ratios(cases[0], cases[1])
    distinct_cost = paired_ratios(cases[3], cases[2])

    assert statistics.median(shared_gain) > 2, (
        f"read_fetches_many no longer shares work between repeats of one "
        f"request: loop / batch = {sorted(shared_gain)}"
    )
    assert statistics.median(distinct_cost) < 1.1, (
        f"read_fetches_many slower than the loop on all-distinct requests: "
        f"batch / loop = {sorted(distinct_cost)}"
    )


def test_read_fold_gate(monkeypatch):
    """Shape gate: the read replay plans and routes a window's *distinct*
    requests, not its ops.

    Counted, not timed, through ``run_scale_read`` itself: on one window of
    8192 requests over 256 distinct ones, ``read_fetches_many`` is handed
    exactly 256 requests, ``route_many`` exactly 256 keys, and 256
    ``LookupResult`` are constructed, while the row still reports 8192 ops;
    on an all-distinct window of 4096 the three counts are the per-op 4096.
    """
    from repro.analysis import scale

    paths = [f"/data/f{index:02d}" for index in range(64)]

    def window_of(steps):
        return Trace(
            "fold-gate",
            [TraceRecord(0.0, "u", READ, path, offset=1000 * step, length=500)
             for step in range(steps) for path in paths],
            initial_dirs=["/data"],
            initial_files=[(path, 12 * BLOCK_SIZE) for path in paths],
        )

    seen = {"requests": 0, "keys": 0, "results": 0}

    def counted(name, real, size):
        def wrapper(*args, **kwargs):
            seen[name] += size(args)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(core_system.Deployment, "read_fetches_many", counted(
        "requests", core_system.Deployment.read_fetches_many, lambda args: len(args[1])))
    monkeypatch.setattr(
        scale, "route_many", counted("keys", scale.route_many, lambda args: len(args[2])))
    monkeypatch.setattr(
        routing, "LookupResult", counted("results", routing.LookupResult, lambda args: 1))

    # (template steps, clones) -> ops in the one window, distinct requests
    for steps, clones, ops, distinct in ((4, 32, 8192, 256), (64, 1, 4096, 4096)):
        trace = window_of(steps)
        deployment = build_deployment("d2", 16, seed=4)
        deployment.load_initial_image(trace)
        seen.update(requests=0, keys=0, results=0)
        result = scale.run_scale_read(
            deployment, trace, copies=0, users=clones, ops_per_user=64 * steps, window=8192
        )
        assert (result.ops, result.windows) == (ops, 1)
        assert seen == {"requests": distinct, "keys": distinct, "results": distinct}, (
            f"{ops}-op window over {distinct} distinct requests: {seen}"
        )


def test_read_stream_gate(monkeypatch):
    """Shape gate: the read replay does no Python-level work per op.

    Counted, not timed, through ``run_scale_read`` itself, as Python ``call``
    events under ``sys.setprofile``.  32 clones of a 256-read template, 8192
    ops in three windows: the whole replay — the template, the 256 plans
    (~17 calls each) and 768 routes included; measured 0.89 a op — makes
    fewer calls than the per-op stream kept in ``tests/oracles.py`` makes
    alone (2 a op: a generator resume and a ``replica_path`` call; the replay
    around it made 3.86).  Four times the clones over the same requests
    add under 0.01 calls per added op: a clone costs a C-level memo hit, or
    one slice if its block is new.  ``read_fetches_many`` is handed each
    distinct request once a run, all 256 in the first window.
    """
    from repro.analysis import scale

    paths = [f"/data/f{index:02d}" for index in range(64)]
    reads = [("u", path, 1000 * step, 500) for step in range(4) for path in paths]
    trace = Trace(
        "stream-gate",
        [TraceRecord(0.0, user, READ, path, offset=offset, length=length)
         for user, path, offset, length in reads],
        initial_dirs=["/data"],
        initial_files=[(path, 12 * BLOCK_SIZE) for path in paths],
    )

    handed = []
    plan = core_system.Deployment.read_fetches_many
    monkeypatch.setattr(
        core_system.Deployment, "read_fetches_many",
        lambda self, requests: handed.append(list(requests)) or plan(self, requests),
    )

    def python_calls(fn):
        with CallCounter() as counter:
            result = fn()
        return counter.total(), result

    def replay(clones):
        deployment = build_deployment("d2", 16, seed=4)
        deployment.load_initial_image(trace)
        del handed[:]
        calls, result = python_calls(lambda: scale.run_scale_read(
            deployment, trace, copies=0, users=clones, ops_per_user=256,
            window=-(-clones * 256 // 3),
        ))
        assert (result.ops, result.windows) == (clones * 256, 3)
        assert [len(requests) for requests in handed] == [256], handed
        assert len(set(handed[0])) == 256
        return calls

    per_op_stream, items = python_calls(
        lambda: len(list(read_stream_per_op(reads, clones=32, ops_per_clone=256))))
    assert items == 8192 and per_op_stream >= 2 * 8192, per_op_stream
    small, large = replay(32), replay(128)
    assert small < per_op_stream, f"{small} Python calls in a replay of 8192 ops"
    assert large - small < 0.01 * (128 - 32) * 256, (
        f"{large - small} more Python calls for {(128 - 32) * 256} more ops "
        f"over the same 256 requests"
    )


def test_fetch_count_gate(monkeypatch):
    """Shape gate: the timed fetch harness does each piece of a fetch once.

    Counted, not timed, through ``run_performance`` itself on a small cell
    (3 users over half a day, 20 nodes, d2 then traditional), with Python
    ``call`` events counted per function under ``sys.setprofile``:

    * ``DhtFileSystem.read_fetches`` plans each distinct (file version,
      offset, length) the replay reads at most once;
    * a timed fetch resolves its key with exactly one
      ``Ring.successor_index``, plus the one inside each routed lookup it
      makes on a cache miss (a buffer-cache hit makes none);
    * ``Simulator.run`` enters its event loop only when an event is due;
    * ``LookupCache._reindex`` runs only for an insert whose expiry sweep
      dropped entries: an insert that appends or replaces patches the index.

    Measured: 454 plans for 454 distinct requests, 5 214 timed lookups (98
    fetches absorbed) with 30 routed, 140 of 1 358 runs with an event due,
    33 of 254 inserts swept.
    """
    from repro.analysis import performance
    from repro.workloads.harvard import HarvardConfig, generate_harvard

    trace = generate_harvard(HarvardConfig(users=3, days=0.5, seed=4))
    counter = CallCounter()
    watched = {
        "plan": DhtFileSystem.read_fetches,
        "successor_index": Ring.successor_index,
        "route": routing.route,
        "drain": Simulator._drain,
        "reindex": LookupCache._reindex,
    }

    def calls(name):
        return counter.of(watched[name])

    requests, nodes = set(), []
    read_fetches = core_system.Deployment.read_fetches

    def read(self, path, offset=0, length=None):
        fetches = read_fetches(self, path, offset, length)
        node = self.fs.namespace.resolve_file(path)
        nodes.append(node)  # held, so no two files share an id
        requests.add((id(node), node.version, offset, length))
        return fetches

    fetches, mismatched = [0, 0], []
    fetch_latency = performance.PerformanceHarness.fetch_latency

    def timed(self, *args):
        resolved, routed, lookups = calls("successor_index"), calls("route"), self.lookups
        latency = fetch_latency(self, *args)
        resolved = calls("successor_index") - resolved
        routed = calls("route") - routed
        fetches[self.lookups - lookups] += 1
        if resolved != self.lookups - lookups + routed:
            mismatched.append((resolved, routed))
        return latency

    runs = {"due": 0, "idle": 0}
    drain_in_idle = []
    run = Simulator.run

    def counted_run(self, until=None):
        queue = self._queue
        due = until is None or (bool(queue) and queue[0][0] <= until)
        runs["due" if due else "idle"] += 1
        before = calls("drain")
        run(self, until)
        if not due and calls("drain") != before:
            drain_in_idle.append(until)

    inserts = {"swept": 0, "patched": 0}
    reindexed_patch = []
    insert = LookupCache.insert

    def counted_insert(self, lo, hi, node, now):
        evicted, before = self.stats.evictions, calls("reindex")
        entry = insert(self, lo, hi, node, now)
        swept = self.stats.evictions > evicted
        inserts["swept" if swept else "patched"] += 1
        if not swept and calls("reindex") != before:
            reindexed_patch.append((lo, hi))
        return entry

    monkeypatch.setattr(core_system.Deployment, "read_fetches", read)
    monkeypatch.setattr(performance.PerformanceHarness, "fetch_latency", timed)
    monkeypatch.setattr(Simulator, "run", counted_run)
    monkeypatch.setattr(LookupCache, "insert", counted_insert)
    with counter:
        for system in ("d2", "traditional"):
            performance.run_performance(trace, system, mode="seq", n_nodes=20, seed=1,
                                        n_windows=2)
    absorbed, looked_up = fetches
    assert looked_up > 100 and calls("route") > 0, (fetches, calls("route"))
    assert not mismatched, (
        f"(successor_index, route) calls of timed fetches that did not resolve "
        f"the key once: {mismatched[:5]} of {len(mismatched)}"
    )
    assert 0 < calls("plan") <= len(requests), (calls("plan"), len(requests))
    assert runs["idle"] > runs["due"] > 0 and not drain_in_idle, (runs, drain_in_idle[:5])
    assert inserts["patched"] > 0 and not reindexed_patch, (inserts, reindexed_patch[:5])


def test_flush_commit_gate(monkeypatch):
    """Shape gate: an object's flush is planned and committed once.

    Counted on the load of a 400-object image (20 directories of 19 files,
    inline to 12 blocks): the storage identity is made once per object and
    the Figure-4 prefix encoded once per object plus once for the root; the
    load leaves ``Ring._owner_memo`` as it found it; a flush that retires
    keys leaves one queue entry, counted as one event per key, and an entry
    owns at most 2 GC-tracked objects (its queue tuple and its
    ``GraceEntry``).  The per-key oracle must then hold the same removals:
    the same ``(deadline, key)`` firing sequence, and the same directory and
    ledger once both have fired.  Then on the clock (median of 15 paired
    ratios, collector off; measured 1.8x): applying the image's flushes
    through ``apply_ops`` -> ``commit`` must beat the per-key store path
    kept in ``tests/oracles.py`` by >= 1.25x.
    """
    sizes = (0, 300, BLOCK_SIZE, 3 * BLOCK_SIZE + 17, 12 * BLOCK_SIZE)
    directories = [f"/vol/d{index:02d}" for index in range(20)]
    image = SimpleNamespace(
        initial_dirs=["/vol", *directories],
        initial_files=[
            (f"{directory}/f{index:02d}", sizes[index % len(sizes)])
            for directory in directories for index in range(19)
        ],
    )
    objects = len(image.initial_dirs) + len(image.initial_files)

    calls, flushes = [], []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    def recorded(store, ops):
        flushes.append(ops)
        return apply_ops(store, ops)

    deployment = build_deployment("d2", 64, seed=4)
    commit, retiring = deployment.store.commit, []

    def counted_commit(puts, removes=(), **kwargs):
        retiring.append(bool(removes))
        return commit(puts, removes, **kwargs)

    with monkeypatch.context() as patch:
        for module, name in ((namespace, "storage_identity"), (keyschemes, "encode_path_key")):
            patch.setattr(module, name, counted(name, getattr(module, name)))
        patch.setattr(core_system, "apply_ops", recorded)
        patch.setattr(deployment.store, "commit", counted_commit)
        memo_before = len(deployment.ring._owner_memo)
        deployment.load_initial_image(image)
    assert len(flushes) == objects + 1  # format, then one flush per object
    # The root directory got its identity with the deployment, before the count.
    assert calls.count("storage_identity") <= objects, calls.count("storage_identity")
    assert calls.count("encode_path_key") <= objects + 1, calls.count("encode_path_key")
    assert len(deployment.ring._owner_memo) == memo_before == 0

    gc.collect()  # untracks each entry's tuple of keys, as any pass would
    pending = deployment.sim._queue
    assert deployment.sim.pending() == len(deployment.store._removes_at) > objects
    assert 0 < len(pending) <= sum(retiring), (
        f"{len(pending)} queue entries for {sum(retiring)} flushes that retire keys"
    )
    assert all(type(entry[2]) is GraceEntry for entry in pending)
    owned = [sum(map(gc.is_tracked, (entry, entry[2], entry[2].keys))) for entry in pending]
    assert max(owned) <= 2, f"GC-tracked objects per grace entry: {max(owned)}"

    def apply_image(coordinator, apply):
        def run():
            ring, _ = build_ring(64, seed=4)
            store = coordinator(ring, Simulator())
            for ops in flushes:
                apply(store, ops)
            return store
        return run

    per_key = apply_image(PerKeyCoordinator, apply_ops_per_key)
    one_commit = apply_image(StorageCoordinator, apply_ops)
    old, new = per_key(), one_commit()
    assert list(old.directory._sizes.items()) == list(new.directory._sizes.items())
    assert old.physical_at == new.physical_at and old._removes_at == new._removes_at
    assert old.ledger == new.ledger and old.sim.pending() == new.sim.pending()
    assert firing_sequence(old.sim) == firing_sequence(new.sim)
    old.sim.run()
    new.sim.run()
    assert list(old.directory._sizes.items()) == list(new.directory._sizes.items())
    assert old.ledger == new.ledger and not (old._removes_at or new._removes_at)

    gain = paired_ratios(per_key, one_commit)
    assert statistics.median(gain) > 1.25, (
        f"one commit per flush no longer beats one store call per key: "
        f"per key / commit = {sorted(gain)}"
    )


@pytest.mark.parametrize("system", ["d2", "traditional"])
def test_image_load_count_gate(monkeypatch, system):
    """Shape gate: an image load makes, checks and stores each key once.

    Counted, not timed, on the load of a small Harvard image (3 users over
    half a day; 20 nodes), flush by flush, with Python ``call`` events of
    ``benchmarks/callcount.py``:

    * keys checked (each key handed to ``check_items``, plus each call of
      ``validate_key``) are at most the flush's distinct put and remove keys;
    * ``directory_block_sizes`` computes each entry count at most once (its
      table is a cache of tuples);
    * Python calls into ``src/repro`` per block op stay within the measured
      3.19 (d2) and 6.22 (traditional: two calls per hashed key) plus a
      quarter; the flush path this replaced made 9.82 and 11.38.
    """
    import repro
    from repro.dht import keyspace
    from repro.fs import blocks
    from repro.workloads.harvard import HarvardConfig, generate_harvard

    image = generate_harvard(HarvardConfig(users=3, days=0.5, seed=4))
    deployment = build_deployment(system, 20, seed=4)
    checked, flushes = [0], []
    check_items = block_store.check_items

    def counted_check(keys, sizes=()):
        checked[0] += len(keys)
        return check_items(keys, sizes)

    def recorded(store, ops):
        checked[0], singles = 0, counter.of(keyspace.validate_key)
        counters = apply_ops(store, ops)
        distinct = {key for action, key, _, _ in ops if action != "get"}
        singles = counter.of(keyspace.validate_key) - singles
        flushes.append((len(ops), len(distinct), checked[0] + singles))
        return counters

    counter = CallCounter()
    for name, module in list(sys.modules.items()):  # wherever it was imported
        if name.startswith("repro.") and getattr(module, "check_items", None) is check_items:
            monkeypatch.setattr(module, "check_items", counted_check)
    monkeypatch.setattr(core_system, "apply_ops", recorded)
    blocks.directory_block_sizes.cache_clear()
    with counter:
        deployment.load_initial_image(image)
    ops = sum(n for n, _, _ in flushes)
    assert len(flushes) > 100 and ops > 10 * len(flushes), (len(flushes), ops)
    over = [(distinct, keys) for _, distinct, keys in flushes if keys > distinct]
    assert not over, f"(distinct keys, keys checked) of flushes checking a key twice: {over[:5]}"
    entry_counts = max(len(d.children) for d in walk_directories(deployment.fs.namespace.root))
    sized = counter.of(blocks.directory_block_sizes.__wrapped__)
    assert sized <= entry_counts + 1, (sized, entry_counts)
    bound = {"d2": 3.19, "traditional": 6.22}[system] * 1.25
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    per_op = sum(counter.by_package(src).values()) / ops
    assert per_op <= bound, f"{per_op:.2f} Python calls per block op (bound {bound:.2f})"


def walk_directories(directory):
    yield directory
    for child in directory.children.values():
        if not isinstance(child, FileNode):
            yield from walk_directories(child)


def test_churn_count_gate(monkeypatch):
    """Shape gate: a churn storm repairs an arc in one pass.

    Counted, not timed, on a small churn cell (the ``steady`` storm with one
    correlated outage; one user over 0.1 days on 12 nodes, two hours of
    drain), with Python ``call`` events of ``benchmarks/callcount.py``:

    * a ``reconcile_range`` that schedules jobs enqueues them with at most
      one ``schedule_batch`` (and no ``schedule``) and publishes the backlog
      at most once;
    * a health round sorts nothing as large as the tracked keys, and asks
      the tracker for neither ``tracked_keys`` nor ``live_count``;
    * Python calls into ``src/repro`` per scheduled job, from the replay's
      start, stay within the measured 30.46 plus a quarter; the per-key
      repair this replaced made 89.47.
    """
    import repro
    from repro.analysis import churn
    from repro.experiments.churn_storm import STORM_LEVELS
    from repro.experiments.workload_cache import harvard_trace
    from repro.obs import health
    from repro.store import repair

    counter = CallCounter()
    deployments, bursts, rounds = [], [], []
    build, replay = churn.harvard_deployment, churn.replay
    reconcile_range, sample = repair.RepairScheduler.reconcile_range, health.HealthMonitor.sample

    def capture(*args, **kwargs):
        deployments.append(build(*args, **kwargs))
        return deployments[-1]

    def counted_replay(*args, **kwargs):
        counter.__enter__()
        return replay(*args, **kwargs)

    def counted_range(scheduler, lo, hi):
        calls = (repair.RepairScheduler._update_backlog, Simulator.schedule_batch,
                 Simulator.schedule)
        before, scheduled = [counter.of(fn) for fn in calls], scheduler.stats.scheduled
        reconcile_range(scheduler, lo, hi)
        if scheduler.stats.scheduled > scheduled:
            bursts.append([counter.of(fn) - then for fn, then in zip(calls, before)])

    sorts = []

    def checked_sorted(items, **kwargs):
        items = list(items)
        sorts.append(len(items))
        return sorted(items, **kwargs)

    def counted_round(monitor):
        asked = (repair.ReplicaTracker.tracked_keys, repair.ReplicaTracker.live_count)
        before, sorts[:] = [counter.of(fn) for fn in asked], []
        sample(monitor)
        tracked = len(monitor.deployment.repair.tracker._copies)
        rounds.append(([counter.of(fn) - then for fn, then in zip(asked, before)],
                       [size for size in sorts if size > len(monitor.deployment.ring)],
                       tracked))

    monkeypatch.setattr(churn, "harvard_deployment", capture)
    monkeypatch.setattr(churn, "replay", counted_replay)
    monkeypatch.setattr(repair.RepairScheduler, "reconcile_range", counted_range)
    monkeypatch.setattr(health.HealthMonitor, "sample", counted_round)
    for module in (health, repair):
        monkeypatch.setattr(module, "sorted", checked_sorted, raising=False)
    trace = harvard_trace(users=1, days=0.1, seed=7)
    try:
        row = churn.run_churn(trace, level="steady", correlated_events=1, trial=0, days=0.1,
                              n_nodes=12, seed=7, drain_seconds=7200.0, **STORM_LEVELS["steady"])
    finally:
        counter.__exit__()
    assert len(bursts) > 20 and row["repair_scheduled"] > 1000, (len(bursts), row)
    assert all(updates <= 1 and batches <= 1 and singles == 0
               for updates, batches, singles in bursts), bursts
    assert len(rounds) > 10 and all(tracked > 100 for _, _, tracked in rounds), rounds[:3]
    assert all(asked == [0, 0] and not large for asked, large, _ in rounds), rounds
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    per_job = sum(counter.by_package(src).values()) / row["repair_scheduled"]
    bound = 30.46 * 1.25
    assert per_job <= bound, f"{per_job:.2f} Python calls per scheduled job (bound {bound:.2f})"


def test_accel_count_gate(monkeypatch):
    """Shape gate: a traced accelerated lookup makes few Python calls.

    Counted, not timed, on a small ``all``/``hotspot`` accel cell (64
    nodes, 40 directories a phase, 12 clients, 1 500 + 2 500 lookups,
    seed 11; spans at the default rate 1/16), with Python ``call`` events
    of ``benchmarks/callcount.py`` from the first lookup to the end of the
    cell (the span export and the metrics snapshot included):

    * no ``EventTracer.emit`` for a span boundary or a probe outcome: the
      event tracer reads those counts from the span tracer and the caches;
    * no ``Tracer.__bool__`` (a tracer is tested against ``None``), no
      ``LookupCache._lookup`` (every probe of this cell is answered from
      the bisect point) and no ``_count`` or ``Span.annotate`` on a hit,
      and the export formats every span in one ``_span_dicts`` call;
    * Python calls into ``src/repro`` per lookup stay within the measured
      12.11 plus a quarter (13.35 with every root kept); the code this
      replaced made 30.71.
    """
    import repro
    from repro.analysis import accel as accel_cell
    from repro.core import accel
    from repro.obs.events import EventTracer
    from repro.obs.spans import Span, Tracer, _span_dicts

    monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
    counter = CallCounter()
    lookup, lookups = accel.LookupAccelerator.lookup, []

    def counted(self, *args, **kwargs):
        if not lookups:
            counter.__enter__()
        lookups.append(args)
        return lookup(self, *args, **kwargs)

    monkeypatch.setattr(accel.LookupAccelerator, "lookup", counted)
    try:
        result = accel_cell.run_accel_cell(
            mode="all", scenario="hotspot", n_nodes=64, n_dirs=40, clients=12,
            pre_ops=1500, post_ops=2500, seed=11)
    finally:
        counter.__exit__()
    assert len(lookups) == result.lookups == 4000 and result.cache_hits > 3000, result.row()
    assert counter.of(EventTracer.emit) < len(lookups) / 20, counter.of(EventTracer.emit)
    assert counter.of(Tracer.__bool__) == 0
    assert counter.of(LookupCache._lookup) == 0
    # A miss counts itself, its insert and at most one eviction, and is
    # annotated thrice; a hit does neither.
    misses = len(lookups) - result.cache_hits
    assert counter.of(LookupCache._count) <= 3 * misses, counter.of(LookupCache._count)
    assert counter.of(Span.annotate) <= 3 * misses, counter.of(Span.annotate)
    assert counter.of(_span_dicts) == 1  # the export's, for every span at once
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    per_lookup = sum(counter.by_package(src).values()) / len(lookups)
    bound = 12.11 * 1.25
    assert per_lookup <= bound, f"{per_lookup:.2f} Python calls per lookup (bound {bound:.2f})"


def test_accel_unsampled_root_count_gate():
    """Shape gate: an unsampled ``accel.lookup`` root costs one tracer call.

    Counted, not timed: at the default rate 1/16 a tracer keeps its first
    root, then one in 16.  The 15 lookups after the first are unsampled:
    each makes exactly one call into ``repro.obs.spans`` (the
    ``start_trace`` that counts it), builds no :class:`Span` and leaves
    the buffer as it was, while the event tracer still counts every root.
    """
    from repro.core.accel import LookupAccelerator
    from repro.obs import spans as obs_spans
    from repro.obs.events import EventTracer
    from repro.obs.metrics import MetricsRegistry

    ring, rng = build_ring(32, seed=3)
    tracer = obs_spans.Tracer(sample=obs_spans.DEFAULT_SAMPLE)
    events = EventTracer(MetricsRegistry(), tracer)
    accel = LookupAccelerator(ring, mode="all", spans=tracer)
    keys = [rng.randrange(KEY_SPACE) for _ in range(16)]
    assert accel.lookup("c0", "n0", keys[0], now=0.0) is not None  # root 1: kept
    assert tracer.started == len(tracer) == 1
    with CallCounter() as counter:
        for index, key in enumerate(keys[1:], start=1):
            accel.lookup("c0", "n0", key, now=float(index))
    spans_file = obs_spans.__file__
    calls = {code.co_name: n for code, n in counter.counts.items()
             if code.co_filename == spans_file}
    assert calls == {"start_trace": 15}, calls
    assert tracer.started == len(tracer) == 1  # no Span built
    assert events.counts()["span.start"] == events.counts()["span.finish"] == 16
