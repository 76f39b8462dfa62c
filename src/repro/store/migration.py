"""Storage coordinator: write/remove paths, moves, pointers, migration traffic.

This is the glue between the ring, the block directory, and the load
balancer.  It implements the :class:`repro.dht.load_balance.BalanceCoordinator`
protocol and is the single place where *data actually moves*, so it is also
where migration traffic — the cost the paper quantifies in Table 4 — is
accounted.

Physical placement is tracked exactly: ``physical_at[key]`` names the node
holding the primary copy's bytes.  Responsibility is always derived from
the ring.  A *pointer* exists implicitly wherever responsibility and
physical placement disagree; pointer ranges record when a disagreement was
created so stabilization (the deferred fetch) can fire after the configured
delay.  Secondary replicas track the primary placement (footnote 3 of the
paper: balanced primaries imply balanced totals), so migration volumes are
reported for primaries and scaled by the replica count where total traffic
is needed.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter, ne
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.dht.ring import Ring
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.store.block_store import BlockDirectory, check_items
from repro.store.pointers import PointerRange, PointerTable

SECONDS_PER_DAY = 86400.0


@dataclass
class TrafficLedger:
    """Byte counters for written / removed / migrated data, bucketed by day.

    Tables 3 and 4 of the paper report daily write volume ``W_i``, removal
    volume ``R_i``, and load-balancing (migration) volume ``L_i``; this
    ledger produces exactly those series.
    """

    written_by_day: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    removed_by_day: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    migrated_by_day: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    total_written: int = 0
    total_removed: int = 0
    total_migrated: int = 0

    def record_write(self, now: float, nbytes: int) -> None:
        self.written_by_day[int(now // SECONDS_PER_DAY)] += nbytes
        self.total_written += nbytes

    def record_remove(self, now: float, nbytes: int) -> None:
        self.removed_by_day[int(now // SECONDS_PER_DAY)] += nbytes
        self.total_removed += nbytes

    def record_migration(self, now: float, nbytes: int) -> None:
        self.migrated_by_day[int(now // SECONDS_PER_DAY)] += nbytes
        self.total_migrated += nbytes

    def daily_series(self, days: int) -> List[dict]:
        """Per-day ``{day, written, removed, migrated}`` rows for reports."""
        return [
            {
                "day": day + 1,
                "written": self.written_by_day.get(day, 0),
                "removed": self.removed_by_day.get(day, 0),
                "migrated": self.migrated_by_day.get(day, 0),
            }
            for day in range(days)
        ]


class GraceEntry:
    """One flush's grace-period removals as a single simulator entry.

    It holds the flush's retired keys in order and their shared deadline,
    and the flush schedules it with one event counted per key.  Two
    GC-tracked objects per flush (this and its queue tuple), whatever the
    number of keys.
    """

    __slots__ = ("store", "keys", "deadline")

    def __init__(self, store: "StorageCoordinator", keys: Tuple[int, ...],
                 deadline: float) -> None:
        self.store = store
        self.keys = keys
        self.deadline = deadline

    def __call__(self) -> None:
        self.store._expire_removals(self.keys, self.deadline)


class StorageCoordinator:
    """Authoritative storage state machine for one simulated DHT deployment.

    Parameters
    ----------
    ring, sim:
        Shared ring membership and event engine.
    pointer_stabilization_time:
        Delay before an adopted range's blocks are actually fetched
        (paper: 1 hour).
    use_pointers:
        When False, moves transfer blocks immediately — the paper's
        "unnecessary data transfers" strawman (Figure 6), kept as an
        ablation.
    removal_delay:
        Grace period before a removed block leaves the directory
        (paper: 30 s, matching the write-back cache staleness bound).
    replica_count:
        ``r``; used when reporting total (primary + secondary) volumes.
    """

    def __init__(
        self,
        ring: Ring,
        sim: Simulator,
        *,
        pointer_stabilization_time: float = 3600.0,
        use_pointers: bool = True,
        removal_delay: float = 30.0,
        replica_count: int = 3,
        registry: Optional[MetricsRegistry] = None,
        spans=None,
    ) -> None:
        self.ring = ring
        self.sim = sim
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.spans = spans  # repro.obs.spans.Tracer; falsy/None when disabled
        self._span_parent = None
        self._c_writes = self.metrics.counter("store.writes")
        self._c_written_bytes = self.metrics.counter("store.written_bytes")
        self._c_removes = self.metrics.counter("store.removes")
        self._c_removed_bytes = self.metrics.counter("store.removed_bytes")
        self._c_migrations = self.metrics.counter("store.migrations")
        self._c_migrated_bytes = self.metrics.counter("store.migrated_bytes")
        self._c_moves = self.metrics.counter("store.moves")
        self._c_pointer_adopted = self.metrics.counter("pointer.adopted")
        self._c_pointer_stabilized = self.metrics.counter("pointer.stabilized")
        self.directory = BlockDirectory()
        self.pointer_table = PointerTable()
        self.ledger = TrafficLedger()
        self.physical_at: Dict[int, str] = {}
        self.pointer_stabilization_time = pointer_stabilization_time
        self.use_pointers = use_pointers
        self.removal_delay = removal_delay
        self.replica_count = replica_count
        self.moves_executed = 0
        self._removes_at: Dict[int, float] = {}
        self._h_stabilization = self.metrics.histogram("pointer.stabilization_seconds")
        # Optional repro.store.repair.ReplicaTracker: when a churn harness
        # attaches one, the write/remove/migrate paths keep it in sync so
        # crash protocols know exactly which copies each node held.
        self._replica_tracker = None
        # Optional (lo, hi) callback: balancing moves shift replica groups
        # (the mover enters and leaves successor groups), so an attached
        # repair scheduler must re-derive those arcs' replica placement.
        self._reconcile_ranges = None

    # ------------------------------------------------------------------
    # client-facing data path

    def commit(
        self,
        puts: Union[Sequence[Tuple[int, int]], Dict[int, int]],
        removes: Sequence[int] = (),
        *,
        delay: Optional[float] = None,
    ) -> None:
        """Apply one flush: upsert every ``(key, size)`` of *puts* (pairs, or
        a dict of distinct keys), then retire every key of *removes* — what
        one :meth:`write` per put and then one :meth:`remove` per key did.

        The flush is checked whole, each key and size once: a non-int or
        out-of-range key or a negative size raises before the directory, a
        placement, the ledger, a counter or the event queue has changed.
        Owners come from one pass over the ring; ledger and counters move
        once, by the flush's sums.  A put inside a removal grace window
        rescues the block (the pending entry's deadline guard then fails).
        The removals fire after the grace period (*delay*, default
        ``removal_delay``) as one queue entry that counts as one event per
        key; a key gone by then is skipped and only the newest removal's
        deadline counts.
        """
        keys: Collection[int]
        sizes: Collection[int]
        if isinstance(puts, dict):
            keys, sizes, fresh = puts.keys(), puts.values(), puts
        else:
            keys, sizes = tuple(zip(*puts)) or ((), ())
            fresh = dict(puts)
        check_items(keys, sizes)
        check_items(removes)
        now, removes_at = self.sim.now, self._removes_at
        if keys:
            # Owners first: the ring pass raises on an empty ring.
            owners = list(map(itemgetter(0), self.ring.groups(keys, 1)))
            self.directory._upsert(fresh)
            self.physical_at.update(zip(keys, owners))
            written = sum(sizes)
            self.ledger.record_write(now, written)
            self._c_writes.inc(len(keys))
            self._c_written_bytes.inc(written)
            for key in removes_at.keys() & fresh.keys():  # rescued
                del removes_at[key]
            tracker = self._replica_tracker
            if tracker is not None:
                for key in keys:
                    tracker.place(key, self.holders(key))
        if removes:
            wait = self.removal_delay if delay is None else delay
            if wait <= 0:
                for key in removes_at.keys() & removes:
                    del removes_at[key]
                self._discard(removes)
            else:
                deadline = now + wait
                removes_at.update(dict.fromkeys(removes, deadline))
                # The per-key events this stands for would share one time
                # and consecutive sequence numbers: nothing fires between.
                self.sim.schedule(
                    wait, GraceEntry(self, tuple(removes), deadline), count=len(removes)
                )

    def write(self, key: int, size: int) -> None:
        """Insert (or overwrite) a block; bytes land on the current owner."""
        self.commit(((key, size),))

    def remove(self, key: int, *, delay: Optional[float] = None) -> None:
        """Remove a block after the grace period (default: removal_delay)."""
        self.commit((), (key,), delay=delay)

    def _expire_removals(self, keys: Tuple[int, ...], deadline: float) -> None:
        # Key by key in flush order: only the newest scheduled deadline is
        # authoritative, so a re-write or a newer removal supersedes this one.
        removes_at = self._removes_at
        due = []
        for key in keys:
            if removes_at.get(key) == deadline:
                del removes_at[key]
                due.append(key)
        if due:
            self._discard(due)

    def _discard(self, keys: Iterable[int]) -> None:
        """Drop *keys* from the directory now and account those it held."""
        count = nbytes = 0
        for key in keys:
            size = self.directory.discard(key)
            if size is not None:
                count += 1
                nbytes += size
                self.physical_at.pop(key, None)
                if self._replica_tracker is not None:
                    self._replica_tracker.forget(key)
        if count:
            self.ledger.record_remove(self.sim.now, nbytes)
            self._c_removes.inc(count)
            self._c_removed_bytes.inc(nbytes)

    def holders(self, key: int) -> List[str]:
        """Replica group for *key*: its ``r`` distinct successors."""
        return self.ring.successors(key, self.replica_count)

    def physical_holder(self, key: int) -> str:
        """Node physically holding the primary copy (may lag the owner)."""
        try:
            return self.physical_at[key]
        except KeyError:
            raise KeyError(f"block {key:#x} has no physical placement") from None

    # ------------------------------------------------------------------
    # BalanceCoordinator protocol

    def primary_load(self, name: str) -> int:
        lo, hi = self.ring.range_of(name)
        return self.directory.count_in_range(lo, hi)

    def primary_keys(self, name: str) -> Sequence[int]:
        lo, hi = self.ring.range_of(name)
        return self.directory.keys_in_range(lo, hi)

    def execute_move(self, mover: str, new_id: int) -> None:
        """Leave+rejoin of *mover* at *new_id*, with deferred data movement.

        Two ranges change hands: the mover's old range (adopted by its old
        successor) and the slice of the target's range below *new_id*
        (adopted by the mover).  With pointers enabled both adoptions are
        recorded and fetched after the stabilization delay; otherwise the
        bytes move immediately.
        """
        old_lo, old_hi = self.ring.range_of(mover)
        single_node = len(self.ring) == 1
        old_replica_range = (
            None
            if self._reconcile_ranges is None
            else self.ring.replica_range_of(mover, self.replica_count)
        )

        self.ring.change_position(mover, new_id)
        self.moves_executed += 1
        self._c_moves.inc()

        if not single_node:
            # Whoever owns the vacated arc now adopts it.  When the mover
            # slid within its own neighborhood (it was already the target's
            # predecessor) it still owns the old arc itself and no hand-off
            # is needed.
            adopter = self.ring.successor(old_hi)
            if adopter != mover:
                self._hand_off(old_lo, old_hi, adopter)
        new_lo, new_hi = self.ring.range_of(mover)
        self._hand_off(new_lo, new_hi, mover)
        if self._reconcile_ranges is not None:
            # The mover left the replica groups of its old neighborhood and
            # entered those of its new one; both arcs re-derive placement.
            self._reconcile_ranges(*old_replica_range)
            self._reconcile_ranges(
                *self.ring.replica_range_of(mover, self.replica_count)
            )

    # ------------------------------------------------------------------
    # movement mechanics

    @contextmanager
    def span_context(self, parent) -> Iterator[None]:
        """Parent all spans recorded inside the block under *parent*.

        Used by the balancer so pointer-adoption spans nest inside the
        ``balance.move`` span that caused them.  Stabilization fires later
        via the event queue, outside any such context, and records roots.
        """
        previous = self._span_parent
        self._span_parent = parent
        try:
            yield
        finally:
            self._span_parent = previous

    def _record_span(self, name: str, **attrs) -> None:
        """Instantaneous span at ``sim.now`` (child of the active context)."""
        if not self.spans:
            return
        now = self.sim.now
        if self._span_parent:
            span = self.spans.start_span(name, now, self._span_parent, **attrs)
            self.spans.finish(span, now)
        else:
            self.spans.instant(name, now, **attrs)

    def _hand_off(self, lo: int, hi: int, adopter: str) -> None:
        if self.use_pointers:
            record = self.pointer_table.adopt(lo, hi, adopter, self.sim.now)
            self._c_pointer_adopted.inc()
            self._record_span("pointer.adopt", lo=lo, hi=hi, owner=adopter)
            self.sim.schedule(
                self.pointer_stabilization_time, lambda: self._stabilize(record)
            )
        else:
            self._fetch_range(lo, hi)

    def _stabilize(self, record: PointerRange) -> None:
        """Pointer stabilization: pull in any bytes still held elsewhere.

        A record that fails to retire was already handled (force-flushed at
        teardown, or superseded): its arc has been fetched by whoever
        retired it, so re-scanning would only re-fire migration spans and
        events for work that never happens.  Skip it.
        """
        if not self.pointer_table.retire(record):
            return
        self._c_pointer_stabilized.inc()
        self._h_stabilization.observe(self.sim.now - record.adopted_at)
        self._record_span(
            "pointer.stabilize", lo=record.lo, hi=record.hi, owner=record.owner
        )
        self._fetch_range(record.lo, record.hi)

    def _fetch_range(self, lo: int, hi: int) -> None:
        """Materialize every block in ``(lo, hi]`` on its current owner.

        Blocks already co-located with their owner (e.g. written after the
        adoption, or never moved) cost nothing — this is exactly the saving
        pointers exist to capture.
        """
        migrated = 0
        for key in self.directory.keys_in_range(lo, hi):
            owner = self.ring.successor(key)
            if self.physical_at.get(key) != owner:
                migrated += self.directory.size_of(key)
                self.physical_at[key] = owner
                if self._replica_tracker is not None:
                    self._replica_tracker.add_copy(key, owner)
        if migrated:
            self.ledger.record_migration(self.sim.now, migrated)
            self._record_span("store.migrate", lo=lo, hi=hi, bytes=migrated)
            self._c_migrations.inc()
            self._c_migrated_bytes.inc(migrated)

    def flush_all_pointers(self) -> None:
        """Force-stabilize everything (used at experiment teardown)."""
        for record in list(self.pointer_table.pending()):
            self._stabilize(record)

    # ------------------------------------------------------------------
    # membership support (repro.dht.membership / repro.store.repair)

    def attach_replica_tracker(self, tracker) -> None:
        """Keep *tracker* (:class:`repro.store.repair.ReplicaTracker`) in
        sync with the write/remove/migrate paths from now on."""
        self._replica_tracker = tracker

    def attach_range_reconciler(self, callback) -> None:
        """Invoke ``callback(lo, hi)`` whenever a move shifts replica groups.

        The repair scheduler registers its ``reconcile_range`` here so that
        balancing moves — which change successor groups just like joins and
        leaves do — restore every affected key's replica placement.
        """
        self._reconcile_ranges = callback

    def hand_off(self, lo: int, hi: int, adopter: str) -> None:
        """Public pointer-adoption entry point for membership changes.

        A graceful leave hands the departing node's arc to its successor;
        a join hands the split arc to the joining node — both ride the
        same deferred-migration path the load balancer's moves use.
        """
        self._hand_off(lo, hi, adopter)

    def drop_pointer_records_of(self, owner: str) -> List[PointerRange]:
        """Void every pending pointer record owned by *owner* (crashed).

        Returns the dropped records so the caller can re-adopt their arcs
        under the nodes now responsible.  The records' already-scheduled
        stabilization events become no-ops through the identity guard, and
        none of them count as stabilized.
        """
        dropped = list(self.pointer_table.pending_for(owner))
        for record in dropped:
            self.pointer_table.drop(record)
        return dropped

    def reassign_physical(self, key: int, holder: str) -> None:
        """Point the primary copy's physical placement at *holder*.

        Used by crash recovery (the primary's bytes now live on a
        surviving replica) and by repair completion (the owner finished
        re-materializing the primary copy).
        """
        self.physical_at[key] = holder

    def destroy_block(self, key: int) -> Optional[int]:
        """Drop a block whose last copy died; returns its size, or None.

        Data *loss* is not a removal: the ledger's daily removal series
        must not count destroyed bytes, so no removal accounting happens
        here — the repair scheduler keeps its own loss ledger.
        """
        size = self.directory.discard(key)
        if size is not None:
            self.physical_at.pop(key, None)
            self._removes_at.pop(key, None)
            if self._replica_tracker is not None:
                self._replica_tracker.forget(key)
        return size

    # ------------------------------------------------------------------
    # reporting

    def primary_loads(self) -> Dict[str, int]:
        """Primary block count per node (the balancer's load metric)."""
        return {name: self.primary_load(name) for name in self.ring.names()}

    def total_loads(self) -> Dict[str, int]:
        """Total (primary + secondary) block count per node."""
        ids = self.ring.positions()
        return self._with_replicas(
            [self.directory.count_in_range(ids[at - 1], ids[at]) for at in range(len(ids))]
        )

    def total_bytes_per_node(self) -> Dict[str, int]:
        """Total stored bytes per node (own arc plus r-1 predecessors').

        This is the storage-load metric Figures 16 and 17 plot the
        normalized standard deviation of.
        """
        ids = self.ring.positions()
        return self._with_replicas(
            [self.directory.bytes_in_range(ids[at - 1], ids[at]) for at in range(len(ids))]
        )

    def _with_replicas(self, per_arc: List[int]) -> Dict[str, int]:
        """Each node's total from the primary amounts of the arcs in ring
        order: a node holds replicas for its own arc and its ``r - 1``
        predecessors' arcs."""
        width = min(self.replica_count, len(per_arc))
        padded = per_arc[len(per_arc) - width + 1:] + per_arc
        return {
            name: sum(padded[at:at + width]) for at, name in enumerate(self.ring.names())
        }

    def pointer_block_count(self) -> int:
        """Blocks whose owner currently holds only a pointer.

        Every block's owner is asked once, in one pass that leaves the
        ring's per-key memo alone (a report would otherwise fill it with
        every key of the store).
        """
        keys = list(self.directory.keys())
        if not keys:
            return 0
        owners = map(itemgetter(0), self.ring.groups(keys, 1))
        return sum(map(ne, map(self.physical_at.get, keys), owners))
