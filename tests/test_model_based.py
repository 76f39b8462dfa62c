"""Model-based (stateful) tests: caches and indexes vs brute-force reference models."""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.config import D2Config
from repro.core.lookup_cache import LookupCache
from repro.core.system import build_deployment
from repro.dht.ring import Ring
from repro.fs.blocks import BLOCK_SIZE, INLINE_DATA_THRESHOLD, BlockKind
from repro.fs.fslayer import BlockOp, apply_ops
from repro.fs.namespace import Directory, FileNode, NamespaceError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.sim.engine import Simulator
from repro.store.block_store import BlockDirectory, BlockDirectoryError
from repro.store.migration import StorageCoordinator
from repro.store.repair import ReplicaTracker
from tests.oracles import (
    PerKeyCoordinator,
    ScanLookupCache,
    SortedDictDirectory,
    apply_ops_per_key,
    store_state,
)
from tests.test_membership import key_at, make_cluster

SMALL_KEYS = st.integers(min_value=0, max_value=999)


class LookupCacheMachine(RuleBasedStateMachine):
    """The bisecting cache against the linear freshest-covering scan it
    replaced (:class:`tests.oracles.ScanLookupCache`): the same calls go to
    both, and every answer, every counter and the entries must agree after
    every step.

    Arcs are arbitrary — overlapping, nested, wrapping, the full ring — and
    inserts between two clock steps expire together, so the "latest
    ``expires_at`` wins, lowest range end on ties" rule is what decides most
    probes.  An implementation that assumes disjoint arcs fails here.
    """

    nodes = "abcdef"

    @initialize(capacity=st.one_of(st.none(), st.integers(min_value=2, max_value=12)))
    def build(self, capacity):
        self.ring = Ring()
        for index, name in enumerate(self.nodes):
            self.ring.join(name, 150 * index + 75)
        self.caches = [
            cls(ttl=100.0, capacity=capacity, ring=self.ring)
            for cls in (LookupCache, ScanLookupCache)
        ]
        self.now = 0.0

    def both(self, method, *args):
        got, expected = (getattr(cache, method)(*args) for cache in self.caches)
        assert got == expected, (method, args, got, expected)

    @rule(lo=SMALL_KEYS, hi=SMALL_KEYS, node=st.sampled_from(nodes))
    def insert(self, lo, hi, node):
        self.both("insert", lo, hi, node, self.now)

    @rule(at=SMALL_KEYS, node=st.sampled_from(nodes))
    def insert_full_ring(self, at, node):
        self.both("insert", at, at, node, self.now)

    @rule(delta=st.floats(min_value=0.0, max_value=60.0))
    def advance(self, delta):
        self.now += delta

    @rule(key=SMALL_KEYS)
    def probe(self, key):
        self.both("probe", key, self.now)

    @rule(key=SMALL_KEYS)
    def invalidate(self, key):
        self.both("invalidate", key)

    @rule(node=st.sampled_from(nodes))
    def leave(self, node):
        if node in self.ring and len(self.ring) > 1:
            self.ring.leave(node)

    @invariant()
    def same_state(self):
        cache, oracle = self.caches
        assert cache.entries() == oracle.entries()
        assert cache.stats == oracle.stats, (cache.stats, oracle.stats)
        assert cache.stats.hits + cache.stats.misses == cache.stats.lookups


TestLookupCacheModel = LookupCacheMachine.TestCase
TestLookupCacheModel.settings = settings(max_examples=40, deadline=None)


# A key space small enough that removes mostly hit and adds mostly miss.
DIRECTORY_KEYS = st.integers(min_value=0, max_value=255)
ARCS = st.one_of(
    st.tuples(DIRECTORY_KEYS, DIRECTORY_KEYS),  # plain or wrapping
    DIRECTORY_KEYS.map(lambda key: (key, key)),  # lo == hi: the full ring
)


class RingDirectoryMachine(RuleBasedStateMachine):
    """The patched sorted index against a dict that is sorted afresh on
    every query (:class:`tests.oracles.SortedDictDirectory`).

    Mutations come singly (the next query patches them in), in pairs that
    cancel inside one window, and in bursts that cross the re-sort
    threshold; every query kind is checked over plain, wrapping and
    full-ring arcs, and a list once returned must not change afterwards.
    """

    def __init__(self):
        super().__init__()
        self.directory = BlockDirectory()
        self.model = SortedDictDirectory()
        self.returned = []  # (list handed out, its contents then)

    @initialize(keys=st.lists(DIRECTORY_KEYS, min_size=96, unique=True), arc=ARCS)
    def load_image(self, keys, arc):
        """Start from a built index, so that what follows is patched in."""
        self.burst(keys, remove=False)
        self.query(arc)

    def both(self, method, *args):
        results = []
        for target in (self.directory, self.model):
            try:
                results.append(getattr(target, method)(*args))
            except BlockDirectoryError:
                results.append(BlockDirectoryError)
        assert results[0] == results[1], (method, args, results)
        return results[0]

    @rule(method=st.sampled_from(["add", "put"]), key=DIRECTORY_KEYS,
          size=st.integers(min_value=0, max_value=8192))
    def store(self, method, key, size):
        self.both(method, key, size)  # a put of a live key changes its size only

    @rule(method=st.sampled_from(["remove", "discard"]), key=DIRECTORY_KEYS)
    def drop(self, method, key):
        self.both(method, key)

    @rule(key=DIRECTORY_KEYS)
    def flicker(self, key):
        """Out and back in, or in and out, with no query in between."""
        size = self.both("discard", key)
        self.both("add", key, 7 if size is None else size)
        if size is None:
            self.both("remove", key)

    @rule(keys=st.lists(DIRECTORY_KEYS, min_size=2, max_size=120), remove=st.booleans())
    def burst(self, keys, remove):
        for key in keys:
            if remove:
                self.both("discard", key)
            else:
                self.both("put", key, key % 13)

    @rule(arc=ARCS)
    def query(self, arc):
        keys = self.both("keys_in_range", *arc)
        self.returned.append((keys, list(keys)))
        self.both("count_in_range", *arc)
        self.both("bytes_in_range", *arc)

    @invariant()
    def totals_match(self):
        assert len(self.directory) == len(self.model.sizes)
        assert self.directory.total_bytes == sum(self.model.sizes.values())
        assert list(self.directory.keys()) == list(self.model.sizes)

    @invariant()
    def returned_lists_are_the_callers(self):
        assert all(keys == then for keys, then in self.returned)


TestRingDirectoryModel = RingDirectoryMachine.TestCase
TestRingDirectoryModel.settings = settings(max_examples=40, deadline=None)


class RepairDeficitMachine(RuleBasedStateMachine):
    """The scheduler's per-key in-flight count (the ``repair.deficit``
    gauge) must equal a recount of the job table after every mutation,
    whichever way a job leaves it: completed, requeued, retried into
    abandonment, source lost, or its key removed meanwhile."""

    def __init__(self):
        super().__init__()
        # 10 B/s against 1000-byte blocks: a copy takes 100 s and queues
        # behind its source's earlier copies, so jobs stay in flight across
        # steps.
        self.ring, self.sim, self.store, self.repair, self.membership = make_cluster(
            n=7, bandwidth=10.0, min_nodes=3
        )
        self.repair.retry_delay = 30.0
        self.joined = 0
        sample = self.repair._update_backlog

        def checked_sample():  # every in-flight mutation ends in a sample
            self.count_matches_job_table()
            sample()

        self.repair._update_backlog = checked_sample

    @initialize(max_retries=st.integers(min_value=0, max_value=2))
    def retry_budget(self, max_retries):
        self.repair.max_retries = max_retries  # 0: first lost source abandons

    @rule(slot=st.integers(min_value=1, max_value=39))
    def write(self, slot):
        self.store.write(key_at(slot * 25), 1000)

    @rule(slot=st.integers(min_value=1, max_value=39))
    def remove(self, slot):
        self.store.remove(key_at(slot * 25), delay=0.0)

    @rule()
    def join(self):
        self.joined += 1
        self.membership.join(f"j{self.joined}")

    @rule(op=st.sampled_from(["leave", "crash", "crash"]), pick=st.integers(0, 63))
    def depart(self, op, pick):
        names = sorted(self.ring.names())
        getattr(self.membership, op)(names[pick % len(names)])

    @rule(delta=st.floats(min_value=1.0, max_value=500.0))
    def advance(self, delta):
        self.sim.run(until=self.sim.now + delta)

    @invariant()
    def count_matches_job_table(self):
        in_flight = self.repair._in_flight
        assert self.repair._jobs_per_key == Counter(key for key, _target in in_flight)
        assert len(self.repair._jobs_per_key) == len({k for k, _ in in_flight})
        if self.repair.backlog() == 0:
            assert not self.repair._jobs_per_key

    def teardown(self):
        self.sim.run(until=self.sim.now + 50_000.0)
        assert self.repair.backlog() == 0 and not self.repair._jobs_per_key


TestRepairDeficitModel = RepairDeficitMachine.TestCase
TestRepairDeficitModel.settings = settings(max_examples=40, deadline=None)


class BlockPlanMachine(RuleBasedStateMachine):
    """The fs layer plans an object's blocks once; every reader of the plan
    must agree, under any mutation history and all three key schemes.

    Model: ``live[key]`` counts the blocks currently stored under *key*
    (one per key, except under ``traditional-file`` where a file's blocks
    share one).  A put adds a block, a remove must name a key a live put
    emitted and takes one away, the root is rewritten in place.  With no
    removal grace period the store directory is then exactly the keys with
    a live block, and ``fs.read`` / ``Deployment.read_fetches`` /
    ``file_data_keys`` all name those same keys.
    """

    names = st.sampled_from(["a", "b", "c", "d"])
    picks = st.integers(min_value=0, max_value=63)
    sizes = st.one_of(
        st.sampled_from([0, 1, INLINE_DATA_THRESHOLD, INLINE_DATA_THRESHOLD + 1,
                         BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE]),
        st.integers(min_value=0, max_value=5 * BLOCK_SIZE),
    )

    @initialize(system=st.sampled_from(["d2", "traditional", "traditional-file"]))
    def format(self, system):
        self.deployment = build_deployment(
            system, 8, config=D2Config(removal_delay=0.0), seed=1
        )
        self.fs = self.deployment.fs
        self.live = Counter()
        self.apply(self.fs.format())

    def apply(self, ops):
        for op in ops:
            if op.action == "put":
                if op.kind is BlockKind.ROOT:
                    self.live[op.key] = 1
                else:
                    self.live[op.key] += 1
            else:
                assert op.action == "remove" and self.live[op.key] > 0, op
                self.live[op.key] -= 1
        self.deployment.apply_fs_ops(ops)

    def paths(self, kind):
        return [path for path, node in self.fs.namespace.walk() if isinstance(node, kind)]

    def child_of(self, pick, name):
        directories = self.paths(Directory)
        return directories[pick % len(directories)].rstrip("/") + "/" + name

    @rule(pick=picks, name=names)
    def mkdir(self, pick, name):
        path = self.child_of(pick, name)
        if not self.fs.namespace.exists(path) and path.count("/") <= 14:  # past level 12: overflow
            self.apply(self.fs.mkdir(path))

    @rule(pick=picks, name=names, size=sizes)
    def create(self, pick, name, size):
        path = self.child_of(pick, name)
        if not self.fs.namespace.exists(path):
            self.apply(self.fs.create(path, size=size))

    @rule(pick=picks, offset=sizes, length=sizes)
    def write(self, pick, offset, length):
        """Overwrite or append, never past the end: a write that starts
        beyond the block holding the old end leaves the blocks in between
        planned but never put (ROADMAP, chaos-fuzzer item) — committed rows
        contain such writes, so that plan is pinned, not fixed, here."""
        files = self.paths(FileNode)
        if files:
            path = files[pick % len(files)]
            offset %= self.fs.stat(path)["size"] + 1
            self.apply(self.fs.write(path, offset, length))

    @rule(pick=picks)
    def remove(self, pick):
        candidates = self.paths((Directory, FileNode))[1:]  # not the root
        if candidates:
            try:
                self.apply(self.fs.remove(candidates[pick % len(candidates)]))
            except NamespaceError:  # non-empty directory: nothing emitted, nothing changed
                pass

    @rule(pick=picks, to=picks, name=names)
    def rename(self, pick, to, name):
        candidates = self.paths((Directory, FileNode))[1:]
        if candidates:
            try:
                self.apply(self.fs.rename(candidates[pick % len(candidates)], self.child_of(to, name)))
            except NamespaceError:  # destination exists, or a directory into itself
                pass

    @rule(pick=picks, offset=sizes, length=st.one_of(st.none(), sizes))
    def read(self, pick, offset, length):
        files = self.paths(FileNode)
        if not files:
            return
        path = files[pick % len(files)]
        ops = self.fs.read(path, offset, length)
        assert all(op.action == "get" and self.live[op.key] > 0 for op in ops)
        kinds = [op.kind for op in ops]
        parents = path.count("/")
        assert kinds[0] is BlockKind.ROOT and kinds[1 + parents] is BlockKind.INODE
        assert set(kinds[1:1 + parents]) == {BlockKind.DIRECTORY}
        assert set(kinds[2 + parents:]) <= {BlockKind.DATA}
        assert [(op.key, op.size) for op in ops[1 + parents:]] == (
            self.deployment.read_fetches(path, offset, length)
        )

    @invariant()
    def every_reader_sees_the_stored_plan(self):
        assert set(self.deployment.store.directory.keys()) == {
            key for key, blocks in self.live.items() if blocks
        }
        for path in self.paths(FileNode):
            whole = self.fs.read(path)
            assert self.fs.file_data_keys(path) == [
                op.key for op in whole if op.kind is BlockKind.DATA
            ]
            stat = self.fs.stat(path)
            assert sum(op.size for op in whole if op.kind is BlockKind.DATA) == (
                0 if stat["inline"] else stat["size"]
            )


TestBlockPlanModel = BlockPlanMachine.TestCase
TestBlockPlanModel.settings = settings(max_examples=60, deadline=None)


FLUSH_KEYS = st.integers(min_value=0, max_value=47)
FLUSH_SIZES = st.integers(min_value=0, max_value=9000)
TTLS = st.one_of(st.none(), st.sampled_from([5.0, 45.0]))
DELAYS = st.one_of(st.none(), st.sampled_from([0.0, 10.0]))


class FlushMachine(RuleBasedStateMachine):
    """One ``StorageCoordinator.commit`` per flush against the per-key code
    it replaced (:class:`tests.oracles.PerKeyCoordinator`, one ``write`` or
    ``remove`` and one event at a time).

    Each side has its own ring, clock, registry and replica tracker, and the
    same calls go to both.  Keys are few, so a flush repeats a key (the
    traditional-file case), re-writes one inside its grace window, removes a
    TTL-guarded one and removes one twice; the grace period is zero in half
    the runs, the tracker arrives mid-run, and the ring changes between
    flushes.  Everything either side can observe must agree after every
    step, and again once every pending event has fired.
    """

    def __init__(self):
        super().__init__()
        self.stores = []

    @initialize(removal_delay=st.sampled_from([0.0, 30.0]))
    def build(self, removal_delay):
        for cls in (StorageCoordinator, PerKeyCoordinator):
            ring, registry = Ring(), MetricsRegistry()
            for index in range(4):
                ring.join(f"n{index}", 12 * index + 5)
            self.stores.append(cls(
                ring, Simulator(registry=registry), removal_delay=removal_delay,
                replica_count=2, registry=registry, spans=Tracer(capacity=64),
            ))

    def both(self, call):
        for store in self.stores:
            call(store)

    @rule(puts=st.lists(st.tuples(FLUSH_KEYS, FLUSH_SIZES), max_size=8),
          removes=st.lists(FLUSH_KEYS, max_size=6), ttl=TTLS, delay=DELAYS)
    def commit(self, puts, removes, ttl, delay):
        self.both(lambda store: store.commit(puts, removes, ttl=ttl, delay=delay))

    @rule(key=FLUSH_KEYS, size=FLUSH_SIZES, ttl=TTLS)
    def write(self, key, size, ttl):
        self.both(lambda store: store.write(key, size, ttl=ttl))

    @rule(key=FLUSH_KEYS, delay=DELAYS)
    def remove(self, key, delay):
        self.both(lambda store: store.remove(key, delay=delay))

    @rule(key=FLUSH_KEYS)
    def refresh(self, key):
        self.both(lambda store: store.refresh(key, 20.0))

    @rule(ops=st.lists(st.tuples(st.sampled_from(["put", "put", "remove", "get"]),
                                 FLUSH_KEYS, FLUSH_SIZES), max_size=10))
    def flush_block_ops(self, ops):
        """Through ``apply_ops``: same-key puts summed, removes filtered."""
        ops = [BlockOp(action, key, size, BlockKind.DATA, f"k{key}") for action, key, size in ops]
        results = [
            apply(store, ops)
            for apply, store in zip((apply_ops, apply_ops_per_key), self.stores)
        ]
        assert results[0] == results[1]

    @rule()
    def attach_trackers(self):
        self.both(lambda store: store.attach_replica_tracker(ReplicaTracker()))

    @rule(index=st.integers(min_value=0, max_value=3), to=FLUSH_KEYS)
    def move_node(self, index, to):
        def move(store):
            if not store.ring.occupied(to):
                store.ring.change_position(f"n{index}", to)
        self.both(move)

    @rule(delta=st.floats(min_value=0.0, max_value=40.0))
    def advance(self, delta):
        self.both(lambda store: store.sim.run(until=store.sim.now + delta))

    @invariant()
    def same_state(self):
        got, expected = map(store_state, self.stores)
        assert got == expected

    def teardown(self):
        if self.stores:
            self.both(lambda store: store.sim.run())
            self.same_state()
            assert not any(store._removes_at or store.sim.pending() for store in self.stores)


TestFlushModel = FlushMachine.TestCase
TestFlushModel.settings = settings(max_examples=60, deadline=None)
