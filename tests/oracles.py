"""Reference models: the code that the finger table, the ordered indexes,
the one-commit flush, the per-distinct read fold, the block-cloned read
stream, the once-accumulated Zipf weights and the record-at-a-time warm-up
replaced.

Kept in the test tree so that ``src/`` has one routing path, one
``_index()``, one ``_find()``, one write/remove body, one read-stream
builder and one replay loop.  The
model-based tests hold the code in ``src/`` to these answer for answer; the
shape gates of ``benchmarks/bench_micro_core.py`` time against them.
"""

import hashlib
from collections import defaultdict
from random import Random

from repro.core import lookup_cache
from repro.core.lookup_cache import LookupCache
from repro.dht.keyspace import KEY_BITS, distance, in_interval
from repro.dht.routing import LookupResult, finger_table_for, route
from repro.fs.namespace import Directory, FileNode, NamespaceError
from repro.obs.stream import NullJsonlWriter, stream_spans
from repro.store.block_store import BlockDirectory, BlockDirectoryError
from repro.store.migration import GraceEntry, StorageCoordinator
from repro.workloads.scale import replica_path
from repro.workloads.shift import FLASH_FRACTION, ShiftRequest, zipf_weights
from repro.workloads.trace import READ


class ScanLookupCache(LookupCache):
    """The lookup cache with no index at all: every probe asks every entry,
    every insert re-sorts them and a capacity eviction scans them all."""

    def _find(self, key):
        best = None
        for entry in self._entries:
            if entry.covers(key) and (best is None or entry.expires_at > best.expires_at):
                best = entry
        return best

    def insert(self, lo, hi, node, now):
        self._drop_expired(now)
        version = self._ring.version if self._ring is not None else -1
        entry = lookup_cache.CacheEntry(lo, hi, node, now + self.ttl, version)
        same = [index for index, old in enumerate(self._entries) if old.hi == hi]
        if same:
            self._entries[same[0]] = entry
        else:
            if self.capacity is not None and len(self._entries) >= self.capacity:
                self._evict_for_capacity()
            self._entries = sorted([*self._entries, entry], key=lambda e: e.hi)
        self._count("inserts")
        return entry

    def _remove_entry(self, entry):
        self._entries.remove(entry)

    def _drop_expired(self, now):
        # Every insert copies every entry, lapsed or not.
        live = [e for e in self._entries if e.expires_at > now]
        dropped = len(self._entries) - len(live)
        if dropped:
            self._count("evictions", dropped)
            self._entries = live


def warm_access(harness, user, key, ident, now):
    """``PerformanceHarness``'s untimed fetch as it was, one fetch at a time:
    the buffer-cache check, then a probe and a ring lookup for the key, and
    on a miss or a stale answer the owner's arc cached."""
    client = harness.client_for(user)
    cached = client.buffer_cache.get(ident)
    if cached is not None and now - cached[0] < harness.buffer_ttl and cached[1] == key:
        return
    client.buffer_cache[ident] = (now, key)
    owner = client.lookup_cache.probe(key, now)
    actual = harness.deployment.ring.successor(key)
    if owner is None or owner != actual:
        lo, hi = harness.deployment.ring.range_of(actual)
        client.lookup_cache.insert(lo, hi, actual, now)


def warm_record_per_fetch(harness, user, fetches, now):
    """``PerformanceHarness.warm_record`` as a loop of :func:`warm_access`
    over the record's fetches, each under its ``(key, position)`` identity."""
    for position, (key, _) in enumerate(fetches):
        warm_access(harness, user, key, (key, position), now)


class ResortingDirectory(BlockDirectory):
    """The block directory as it was: any change to the key set is answered
    by re-sorting all of it at the next query."""

    def _index(self):
        starts = super()._index()
        self._room = 0  # the next change is a burst
        return starts


class SortedDictDirectory:
    """A dict of sizes, sorted and filtered afresh on every query."""

    def __init__(self):
        self.sizes = {}

    def put_many(self, items):
        if any(size < 0 for _, size in items):
            raise BlockDirectoryError("negative block size")
        self.sizes.update(items)

    def discard(self, key):
        return self.sizes.pop(key, None)

    def keys_in_range(self, lo, hi):
        keys = sorted(self.sizes)
        clockwise = [k for k in keys if k > lo] + [k for k in keys if k <= lo]
        return [k for k in clockwise if in_interval(k, lo, hi)]

    def count_in_range(self, lo, hi):
        return len(self.keys_in_range(lo, hi))

    def bytes_in_range(self, lo, hi):
        return sum(self.sizes[k] for k in self.keys_in_range(lo, hi))


def event_keys(fire):
    """The block keys a pending TTL or grace-period entry is for, in firing
    order: a flush's :class:`GraceEntry` holds them all, a per-key event
    holds one in a closure cell."""
    if isinstance(fire, GraceEntry):
        return fire.keys
    return (fire.__closure__[fire.__code__.co_freevars.index("key")].cell_contents,)


def firing_sequence(sim):
    """``(time, key)`` for every key a pending entry will act on, in the
    order they fire: what one event per key would have been queued as."""
    sequence = []
    for when, _, fire, count in sorted(sim._queue, key=lambda entry: entry[:2]):
        keys = event_keys(fire)
        assert count == len(keys), (count, keys)  # one counted event per key
        sequence += [(when, key) for key in keys]
    return sequence


def store_state(store):
    """Everything a flush can change in a coordinator and around it, for
    before/after and side-by-side comparison."""
    tracker = store._replica_tracker
    return {
        "directory": list(store.directory._sizes.items()),
        "total_bytes": store.directory.total_bytes,
        "index": store.directory.keys_in_range(0, 0),
        "physical_at": list(store.physical_at.items()),
        "ledger": (dict(store.ledger.written_by_day), dict(store.ledger.removed_by_day),
                   store.ledger.total_written, store.ledger.total_removed),
        "counters": store.metrics.snapshot()["counters"],
        "removes_at": list(store._removes_at.items()),
        "expires_at": list(store._expires_at.items()),
        "pending": firing_sequence(store.sim),
        "pending_events": store.sim.pending(),
        "now": store.sim.now,
        "tracker": None if tracker is None else (tracker._copies, tracker._keys_on),
        "spans": store.spans.to_dicts() if store.spans else [],
        "span_counts": (store.spans.started, store.spans.finished) if store.spans else None,
    }


class PerKeyCoordinator(StorageCoordinator):
    """The store's data path as it was: every key of a flush on its own — an
    owner bisect memoised for good, a ledger bump, two counter bumps and,
    per removal, two closures and an event scheduled alone."""

    def commit(self, puts, removes=(), *, ttl=None, delay=None):
        for key, size in puts.items() if isinstance(puts, dict) else puts:
            self.write(key, size, ttl=ttl)
        for key in removes:
            self.remove(key, delay=delay)

    def write(self, key, size, *, ttl=None):
        before = self.directory.total_bytes
        self.directory.put_many(((key, size),))
        delta = self.directory.total_bytes - before
        self.physical_at[key] = self.ring.successor(key)
        self.ledger.record_write(self.sim.now, max(delta, size))
        self._c_writes.inc()
        self._c_written_bytes.inc(max(delta, size))
        self._removes_at.pop(key, None)
        if self._replica_tracker is not None:
            self._replica_tracker.place(key, self.holders(key))
        if ttl is not None:
            self._set_expiry(key, ttl)
        elif key in self._expires_at:
            del self._expires_at[key]

    def _expire(self, key, deadline):
        if self._expires_at.get(key) != deadline:
            return
        del self._expires_at[key]
        size = self.directory.discard(key)
        if size is not None:
            self.physical_at.pop(key, None)
            self.ledger.record_remove(self.sim.now, size)
            self._c_removes.inc()
            self._c_removed_bytes.inc(size)
            if self._replica_tracker is not None:
                self._replica_tracker.forget(key)

    def remove(self, key, *, delay=None):
        wait = self.removal_delay if delay is None else delay
        self._expires_at.pop(key, None)

        def _discard():
            size = self.directory.discard(key)
            if size is not None:
                self.physical_at.pop(key, None)
                self.ledger.record_remove(self.sim.now, size)
                self._c_removes.inc()
                self._c_removed_bytes.inc(size)
                if self._replica_tracker is not None:
                    self._replica_tracker.forget(key)

        if wait <= 0:
            self._removes_at.pop(key, None)
            _discard()
            return

        deadline = self.sim.now + wait
        self._removes_at[key] = deadline

        def _expire():
            if self._removes_at.get(key) != deadline:
                return  # superseded by a re-write or a newer removal
            del self._removes_at[key]
            _discard()

        self.sim.schedule(wait, _expire)


def apply_ops_per_key(store, ops):
    """``fs.fslayer.apply_ops`` as it was: one ``store.write`` per distinct
    put key and one ``store.remove`` per surviving remove, inside the span."""
    put_sizes = defaultdict(int)
    put_order = []
    counters = {"put": 0, "get": 0, "remove": 0}
    removes = []
    root = store.spans.start_trace("fs.apply_ops", store.sim.now) if store.spans else None
    for op in ops:
        counters[op.action] += op.size
        if op.action == "put":
            if op.key not in put_sizes:
                put_order.append(op.key)
            put_sizes[op.key] += op.size
        elif op.action == "remove":
            removes.append(op)
    for key in put_order:
        store.write(key, put_sizes[key])
    seen_remove = set()
    for op in removes:
        if op.key in seen_remove:
            continue
        seen_remove.add(op.key)
        if op.key in put_sizes:
            continue  # same flush wrote this key (shared traditional-file key)
        if op.key in store.directory:
            store.remove(op.key)
    if root:
        root.annotate(
            put_bytes=counters["put"],
            get_bytes=counters["get"],
            remove_bytes=counters["remove"],
            puts=len(put_order),
            removes=len(seen_remove),
        )
        store.spans.finish(root, store.sim.now)
    return counters


def read_stream_per_op(reads, *, clones, ops_per_clone, copies=0):
    """``workloads.scale.scaled_read_stream`` as it was: a generator that
    renames the user and formats the replica path of every op of every
    clone, and checks its arguments at the first ``next()``."""
    if clones <= 0:
        raise ValueError(f"clones must be positive, got {clones}")
    if ops_per_clone <= 0:
        raise ValueError(f"ops_per_clone must be positive, got {ops_per_clone}")
    if copies < 0:
        raise ValueError(f"copies must be non-negative, got {copies}")
    n = len(reads)
    if n == 0:
        return
    per_clone = min(ops_per_clone, n)
    for clone in range(clones):
        replica = clone % (copies + 1)
        start = clone % n
        for step in range(per_clone):
            user, path, offset, length = reads[(start + step) % n]
            yield (
                user if clone == 0 else f"{user}~{clone}",
                replica_path(path, replica),
                offset,
                length,
            )


def fold_reads_per_op(deployment, trace, *, copies, users, ops_per_user, window, seed=11):
    """``analysis.scale.run_scale_read`` as it was, one op at a time: every
    read of every window is planned, routed from the window's source and
    added to the sums and the checksum on its own.  Returns what
    ``ScaleCellResult.deterministic_row`` reports for the same arguments."""
    template, skipped = [], 0
    for record in trace.records:
        if record.op != READ:
            continue
        try:
            deployment.fs.namespace.resolve_file(record.path)
        except NamespaceError:
            skipped += 1
            continue
        template.append((record.user, record.path, record.offset, record.length))
    base_users = max(1, len(trace.users()))
    clones = -(-users // base_users)
    stream = list(read_stream_per_op(
        template, clones=clones, ops_per_clone=min(ops_per_user, len(template)), copies=copies,
    )) if template else []
    windows = [stream[lo:lo + window] for lo in range(0, len(stream), window)]
    deployment.sim.schedule_batch(
        (float(index + 1), lambda: None) for index in range(len(windows))
    )
    names = finger_table_for(deployment.ring).names
    source_rng = Random(seed + 2)
    digest = hashlib.sha256()
    span_rows, health_rows = NullJsonlWriter(), NullJsonlWriter()
    ops = hops = messages = fetches = 0
    base_time = deployment.sim.now
    for index, chunk in enumerate(windows):
        source = names[source_rng.randrange(len(names))]
        for _user, path, offset, length in chunk:
            fetch = deployment.read_fetches(path, offset, length)
            result = route(deployment.ring, source, fetch[0][0])
            ops += 1
            hops += result.hops
            messages += result.messages
            fetches += len(fetch)
            digest.update(result.owner.encode("ascii"))
        deployment.advance_to(base_time + float(index + 1))
        stream_spans(deployment.spans, span_rows)
        if deployment.health is not None:
            for row in deployment.health.drain():
                health_rows.write(row)
    if deployment.health is not None:
        for row in deployment.health.finish():
            health_rows.write(row)
    return {
        "cell": "read", "n_nodes": len(deployment.ring), "users": clones * base_users,
        "ops": ops, "hops": hops, "messages": messages, "fetches": fetches,
        "skipped": skipped, "windows": len(windows), "checksum": digest.hexdigest()[:16],
        "streamed_rows": len(windows), "streamed_spans": span_rows.rows,
        "streamed_health": health_rows.rows,
    }


def shift_stream_reweighing(scenario, pre_keys, post_keys, clients, *, pre_ops, post_ops,
                            zipf_s=1.2, rate=10.0, flash_fraction=FLASH_FRACTION, seed=0):
    """``workloads.shift.shift_stream`` as it was: every draw hands
    ``rng.choices`` the ``weights=``, which it accumulates afresh."""
    rng = Random(seed)
    pre_ranks, post_ranks = range(len(pre_keys)), range(len(post_keys))
    pre_weights = zipf_weights(len(pre_keys), zipf_s)
    post_weights = zipf_weights(len(post_keys), zipf_s)
    now = 0.0
    for index in range(pre_ops + post_ops):
        now += rng.expovariate(rate)
        client = clients[rng.randrange(len(clients))]
        phase = "pre" if index < pre_ops else "post"
        if phase == "pre" or scenario == "churn":
            key = pre_keys[rng.choices(pre_ranks, weights=pre_weights, k=1)[0]]
        elif scenario == "migrate":
            key = post_keys[rng.choices(post_ranks, weights=post_weights, k=1)[0]]
        elif rng.random() < flash_fraction:  # hotspot
            key = post_keys[rng.choices(post_ranks, weights=post_weights, k=1)[0]]
        else:
            key = pre_keys[rng.choices(pre_ranks, weights=pre_weights, k=1)[0]]
        yield ShiftRequest(now=now, client=client, key=key, phase=phase)


def route_cold(ring, source, key, *, max_hops=4 * KEY_BITS):
    """Greedy finger routing with a ring bisect per finger level per hop.

    The pre-finger-table lookup: every hop re-derives the fingers of the
    current node from the ring instead of reading a precomputed table.
    ``route`` and ``route_many`` must give the same path for every key;
    ``benchmarks/bench_micro_route.py`` times them against it.
    """
    if source not in ring:
        raise ValueError(f"source node {source!r} not in ring")
    owner = ring.successor(key)
    path = [source]
    current = source
    current_id = ring.position_of(current)
    hops = 0
    while current != owner:
        remaining = distance(current_id, key)
        if remaining == 0:
            break
        next_name, next_id = _best_finger(ring, current_id, key, remaining)
        if next_name == current:
            # Degenerate single-node arc; the successor must be the owner.
            next_name = ring.successor_of(current)
            next_id = ring.position_of(next_name)
        path.append(next_name)
        current = next_name
        current_id = next_id
        hops += 1
        if hops > max_hops:
            raise RuntimeError("routing failed to converge; ring state is inconsistent")
    return LookupResult(key=key, owner=owner, path=path)


def _best_finger(ring, current_id, key, remaining):
    """``(name, id)`` of the farthest finger of *current_id* not past *key*."""
    # A finger at 2**i with 2**i > remaining would overshoot.
    level = remaining.bit_length() - 1
    while level >= 0:
        target = (current_id + (1 << level)) % (1 << KEY_BITS)
        candidate = ring.successor(target)
        candidate_id = ring.position_of(candidate)
        # Usable if it lies in (current, key]: progress without passing the owner.
        if candidate_id != current_id and in_interval(candidate_id, current_id, key):
            return candidate, candidate_id
        level -= 1
    # No finger makes progress: the owner is our immediate successor.
    fallback = ring.successor_of(ring.successor(current_id))  # the node at current_id
    return fallback, ring.position_of(fallback)


def owns(ring, name, key):
    """True when *name*'s arc holds *key*: ownership read off ``range_of``,
    not off the successor search the ring answers lookups with."""
    return len(ring) == 1 or in_interval(key, *ring.range_of(name))


def mkdir(namespace, path):
    """``Namespace.mkdir`` as it was: the parent found by path, then the add
    the file system now makes in the parent it walked to."""
    chain, name = namespace.parent_chain(path)
    return namespace.add(chain[-1], name, Directory)


def create_file(namespace, path, size=0):
    """``Namespace.create_file`` as it was (see :func:`mkdir`)."""
    chain, name = namespace.parent_chain(path)
    return namespace.add(chain[-1], name, FileNode, size=size)


def remove(namespace, path):
    """``Namespace.remove`` as it was (see :func:`mkdir`)."""
    chain, name = namespace.parent_chain(path)
    return namespace.unlink(chain[-1], name)


def rename(namespace, src, dst):
    """``Namespace.rename`` as it was (see :func:`mkdir`)."""
    src_chain, src_name = namespace.parent_chain(src)
    dst_chain, dst_name = namespace.parent_chain(dst)
    return namespace.move(src_chain[-1], src_name, dst_chain, dst_name)


def walk(namespace):
    """Preorder ``(path, node)`` over a namespace, root first, children by name."""
    stack = [("/", namespace.root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, Directory):
            base = path.rstrip("/")
            for name in sorted(node.children, reverse=True):
                stack.append((f"{base}/{name}", node.children[name]))
