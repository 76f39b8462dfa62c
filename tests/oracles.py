"""Reference models: the code the ordered indexes of PR 16, the flush entry
of PR 17, the per-distinct read fold of PR 21 and the block-cloned read
stream and once-accumulated Zipf weights of PR 23 replaced.

Kept in the test tree so that ``src/`` has one ``_index()``, one ``_find()``,
one write/remove body, one read-stream builder and one replay loop.  The
model-based tests hold the code in ``src/`` to these answer for answer; the
shape gates of ``benchmarks/bench_micro_core.py`` time against them.
"""

import hashlib
from collections import defaultdict
from functools import partial
from random import Random

from repro.core.lookup_cache import LookupCache
from repro.dht.keyspace import in_interval
from repro.dht.routing import finger_table_for, route
from repro.fs.namespace import NamespaceError
from repro.obs.stream import NullJsonlWriter, stream_spans
from repro.store.block_store import BlockDirectory, BlockDirectoryError
from repro.store.migration import StorageCoordinator
from repro.workloads.scale import replica_path
from repro.workloads.shift import FLASH_FRACTION, ShiftRequest, zipf_weights
from repro.workloads.trace import READ


class ScanLookupCache(LookupCache):
    """The lookup cache as it was: every probe asks every entry."""

    def _find(self, key):
        best = None
        for entry in self._entries:
            if entry.covers(key) and (best is None or entry.expires_at > best.expires_at):
                best = entry
        return best

    def _remove_entry(self, entry):
        index = self._entries.index(entry)
        del self._entries[index]
        del self._his[index]

    def _drop_expired(self, now):
        # ... and every insert copies every entry, lapsed or not (PR 17).
        live = [(h, e) for h, e in zip(self._his, self._entries) if e.expires_at > now]
        dropped = len(self._entries) - len(live)
        if dropped:
            self._count("evictions", dropped)
            self._his = [h for h, _ in live]
            self._entries = [e for _, e in live]


class ResortingDirectory(BlockDirectory):
    """The block directory as it was: any change to the key set is answered
    by re-sorting all of it at the next query."""

    def _note(self, key, added):
        self._pending = None


class SortedDictDirectory:
    """A dict of sizes, sorted and filtered afresh on every query."""

    def __init__(self):
        self.sizes = {}

    def add(self, key, size):
        if key in self.sizes:
            raise BlockDirectoryError(f"block {key:#x} already present")
        self.sizes[key] = size

    def put(self, key, size):
        delta = size - self.sizes.get(key, 0)
        self.sizes[key] = size
        return delta

    def remove(self, key):
        if key not in self.sizes:
            raise BlockDirectoryError(f"block {key:#x} not present")
        return self.sizes.pop(key)

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


def event_key(fire):
    """The block key a pending TTL or grace-period event is for, whether it
    is held by a ``partial`` or in a closure cell."""
    if isinstance(fire, partial):
        return fire.args[0]
    return fire.__closure__[fire.__code__.co_freevars.index("key")].cell_contents


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
        "pending": sorted((when, seq, event_key(fire)) for when, seq, fire in store.sim._queue),
        "now": store.sim.now,
        "tracker": None if tracker is None else (tracker._copies, tracker._keys_on),
        "spans": [span.to_dict() for span in store.spans or ()],
        "span_counts": (store.spans.started, store.spans.finished) if store.spans else None,
    }


class PerKeyCoordinator(StorageCoordinator):
    """The store's data path as it was: every key of a flush on its own — an
    owner bisect memoised for good, a ledger bump, two counter bumps and,
    per removal, two closures and an event scheduled alone."""

    def commit(self, puts, removes=(), *, ttl=None, delay=None):
        for key, size in puts:
            self.write(key, size, ttl=ttl)
        for key in removes:
            self.remove(key, delay=delay)

    def write(self, key, size, *, ttl=None):
        delta = self.directory.put(key, size)
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
