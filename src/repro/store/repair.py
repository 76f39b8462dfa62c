"""Replica liveness tracking and bandwidth-capped repair under churn.

The static availability model (:mod:`repro.analysis.availability`) assumes
membership never shrinks and approximates regeneration with a closed-form
delay.  This module replaces that approximation with *actually simulated*
repair, per Leslie's *Reliable Data Storage in Distributed Hash Tables*:

* :class:`ReplicaTracker` knows, for every block, which nodes physically
  hold a live copy.  Writes place ``r`` copies on the key's successor
  group; crashes destroy the copies on the dead node.
* :class:`RepairScheduler` restores redundancy after membership changes.
  Each missing copy becomes a repair job that streams the block from a
  surviving holder through that holder's bandwidth-capped token bucket
  (the paper's 750 kbps per-node migration cap).  Jobs whose source or
  target dies mid-transfer retry with exponential backoff; a block whose
  last copy dies before repair lands is *lost*, and the scheduler keeps a
  per-key loss ledger (key, time, bytes) — the data-loss probability the
  churn-storm experiments report.

Determinism: all iteration is over sorted keys or insertion-ordered
dicts, all timing flows through the simulator, and the only randomness is
the caller's seeded RNG — serial and parallel experiment runs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.events import EventTracer, register_kind
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator, TokenBucket
from repro.store.migration import StorageCoordinator

REPAIR_SCHEDULE = register_kind("repair.schedule")
REPAIR_COMPLETE = register_kind("repair.complete")
REPAIR_RETRY = register_kind("repair.retry")
REPAIR_LOSS = register_kind("repair.loss")


class ReplicaTracker:
    """Ground truth for which nodes hold a live physical copy of each block.

    The coordinator's ``physical_at`` tracks only the *primary* copy (for
    pointer/migration accounting); this tracker covers all ``r`` copies so
    crash protocols can answer "did the last copy just die?".  Holder
    lists are insertion-ordered and the reverse index is an
    insertion-ordered dict-of-dicts, so every traversal is deterministic.
    """

    def __init__(self) -> None:
        self._copies: Dict[int, List[str]] = {}
        self._keys_on: Dict[str, Dict[int, None]] = {}

    def place(self, key: int, holders: List[str]) -> None:
        """A (re)write lands *key* on *holders* (its current replica group)."""
        self.forget(key)
        self._copies[key] = []
        for holder in holders:
            self.add_copy(key, holder)

    def add_copy(self, key: int, holder: str) -> bool:
        """Record a finished copy; returns False if *holder* already had one."""
        holders = self._copies.setdefault(key, [])
        if holder in holders:
            return False
        holders.append(holder)
        self._keys_on.setdefault(holder, {})[key] = None
        return True

    def remove_copy(self, key: int, holder: str) -> bool:
        holders = self._copies.get(key)
        if holders is None or holder not in holders:
            return False
        holders.remove(holder)
        on_node = self._keys_on.get(holder)
        if on_node is not None:
            on_node.pop(key, None)
        return True

    def drop_node(self, node: str) -> List[int]:
        """Remove every copy held by *node*; returns the affected keys sorted."""
        keys = sorted(self._keys_on.pop(node, {}))
        for key in keys:
            holders = self._copies.get(key)
            if holders is not None and node in holders:
                holders.remove(node)
        return keys

    def forget(self, key: int) -> None:
        """The block left the directory (removed, expired, or lost)."""
        holders = self._copies.pop(key, None)
        if not holders:
            return
        for holder in holders:
            on_node = self._keys_on.get(holder)
            if on_node is not None:
                on_node.pop(key, None)

    def holders_of(self, key: int) -> Tuple[str, ...]:
        return tuple(self._copies.get(key, ()))

    def has_copy(self, key: int, holder: str) -> bool:
        return holder in self._copies.get(key, ())

    def live_count(self, key: int) -> int:
        return len(self._copies.get(key, ()))

    def tracked_keys(self) -> List[int]:
        return sorted(self._copies)

    def __len__(self) -> int:
        return len(self._copies)


@dataclass
class RepairJob:
    """One in-flight re-replication: *key* streaming toward *target*."""

    key: int
    target: str
    source: str
    size: int
    attempts: int = 0


@dataclass
class LossRecord:
    """A block whose last live copy died before repair could land."""

    key: int
    time: float
    size: int


@dataclass
class RepairStats:
    """Aggregate outcome of one churn run, JSON-ready for experiment rows."""

    scheduled: int = 0
    completed: int = 0
    retries: int = 0
    requeued: int = 0
    abandoned: int = 0
    repaired_bytes: int = 0
    handoff_bytes: int = 0
    gc_bytes: int = 0
    lost_keys: int = 0
    lost_bytes: int = 0
    max_backlog: int = 0
    losses: List[LossRecord] = field(default_factory=list)

    def to_row(self) -> Dict[str, object]:
        return {
            "repair_scheduled": self.scheduled,
            "repair_completed": self.completed,
            "repair_retries": self.retries,
            "repair_requeued": self.requeued,
            "repair_abandoned": self.abandoned,
            "repaired_bytes": self.repaired_bytes,
            "handoff_bytes": self.handoff_bytes,
            "gc_bytes": self.gc_bytes,
            "lost_keys": self.lost_keys,
            "lost_bytes": self.lost_bytes,
            "max_backlog": self.max_backlog,
        }


class RepairScheduler:
    """Restores ``r`` live copies per block after joins, leaves, and crashes.

    Parameters
    ----------
    bandwidth_bps:
        Per-source-node repair bandwidth cap (paper: 750 kbps).  Each
        source node serializes its outgoing repairs through one
        :class:`TokenBucket`.
    retry_delay, max_retries:
        First retry backoff and attempt cap for jobs whose source or
        target died mid-transfer; backoff doubles per attempt.
    """

    def __init__(
        self,
        store: StorageCoordinator,
        sim: Simulator,
        *,
        bandwidth_bps: float = 93750.0,  # 750 kbps
        retry_delay: float = 60.0,
        max_retries: int = 8,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
        spans=None,
    ) -> None:
        self.store = store
        self.sim = sim
        self.ring = store.ring
        self.tracker = ReplicaTracker()
        self.bandwidth_bps = bandwidth_bps
        self.retry_delay = retry_delay
        self.max_retries = max_retries
        self.stats = RepairStats()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._tracer = tracer
        self._spans = spans
        self._c_scheduled = self.metrics.counter("repair.scheduled")
        self._c_completed = self.metrics.counter("repair.completed")
        self._c_retries = self.metrics.counter("repair.retries")
        self._c_lost = self.metrics.counter("repair.lost_keys")
        self._c_repaired_bytes = self.metrics.counter("repair.repaired_bytes")
        self._g_backlog = self.metrics.gauge("repair.backlog")
        self._buckets: Dict[str, TokenBucket] = {}
        self._in_flight: Dict[Tuple[int, str], RepairJob] = {}
        self._jobs_per_key: Dict[int, int] = {}  # len() == under-replicated keys
        self._backlog_series = None
        self._deficit_series = None
        store.attach_replica_tracker(self.tracker)
        store.attach_range_reconciler(self.reconcile_range)

    def attach_timeseries(self, bank) -> None:
        """Push backlog/deficit samples into a health time-series bank.

        Repairs at 8 KB blocks complete in well under a window, so a
        boundary-only scan would read a backlog of ~0 even mid-storm;
        ``max``-aggregated push samples from every in-flight mutation
        preserve the intra-window peak, while the monitor's boundary
        samples of the same series supply the zeros that let alerts
        resolve once the backlog drains.
        """
        self._backlog_series = bank.series("repair.backlog", agg="max")
        self._deficit_series = bank.series("repair.deficit", agg="max")
        self._update_backlog()

    # ------------------------------------------------------------------
    # membership entry points

    def on_node_crashed(self, node: str) -> None:
        """Copies on *node* are destroyed; re-replicate or record loss.

        Must run *after* the ring removal, so desired groups and physical
        reassignment see the post-crash membership.
        """
        for key in self.tracker.drop_node(node):
            survivors = self.tracker.holders_of(key)
            if not survivors:
                self._record_loss(key)
                continue
            if self.store.physical_at.get(key) == node:
                # The primary's bytes died with the node; a surviving
                # replica is the copy of record until repair re-materializes
                # the primary on the new owner.
                self.store.reassign_physical(key, survivors[0])
            self.reconcile(key)

    def on_node_left(self, node: str) -> None:
        """Graceful departure: *node* streams its copies out before leaving.

        Data on a graceful leaver is never at risk — the node stays online
        until its hand-offs complete — so deficits it leaves behind with no
        other surviving copy are transferred synchronously (accounted as
        hand-off bytes), and the rest repair normally from survivors.
        """
        for key in self.tracker.drop_node(node):
            if key not in self.store.directory:
                continue
            if not self.tracker.holders_of(key):
                target = self.ring.successor(key)
                size = self.store.directory.size_of(key)
                self.tracker.add_copy(key, target)
                self.stats.handoff_bytes += size
                if self.store.physical_at.get(key) == node:
                    self.store.reassign_physical(key, target)
            else:
                if self.store.physical_at.get(key) == node:
                    self.store.reassign_physical(key, self.tracker.holders_of(key)[0])
                self.reconcile(key)

    def on_node_joined(self, node: str) -> None:
        """Reconcile the arc *node* now replicates (it entered those groups)."""
        replicas = self.store.replica_count
        lo, hi = self.ring.replica_range_of(node, replicas)
        self.reconcile_range(lo, hi)

    def reconcile_range(self, lo: int, hi: int) -> None:
        """Reconcile every directory key in ``(lo, hi]``.

        Departures call this with the *pre-leave* replica range of the
        departed node: every key in that arc just gained a new tail group
        member, including keys the departed node held no copy of (its copy
        still pointer-owed or in flight), which :meth:`on_node_crashed` /
        :meth:`on_node_left` cannot see via the tracker.
        """
        for key in self.store.directory.keys_in_range(lo, hi):
            self.reconcile(key)

    # ------------------------------------------------------------------
    # per-key reconciliation

    def reconcile(self, key: int) -> None:
        """Drive *key* toward exactly ``r`` copies on its successor group.

        Missing group members get repair jobs; out-of-group copies are
        garbage-collected once at least one in-group copy exists (an
        out-of-group survivor is kept alive while it is the only source).
        """
        if key not in self.store.directory:
            return
        group = self.ring.successors(key, self.store.replica_count)
        holders = self.tracker.holders_of(key)
        in_group = [h for h in holders if h in group]
        if in_group:
            for holder in holders:
                if holder not in group:
                    self.tracker.remove_copy(key, holder)
                    self.stats.gc_bytes += self.store.directory.size_of(key)
        owner = group[0]
        for member in group:
            if self.tracker.has_copy(key, member):
                continue
            if member == owner and any(
                r.owner == member for r in self.store.pointer_table.covering(key)
            ):
                # A pending pointer adoption already owes the primary copy
                # to this node; its stabilization fetch delivers the bytes.
                continue
            self._schedule(key, member)

    def _schedule(self, key: int, target: str) -> None:
        if (key, target) in self._in_flight:
            return
        holders = self.tracker.holders_of(key)
        if not holders:
            return  # loss already recorded (or write in flight)
        size = self.store.directory.size_of(key)
        job = RepairJob(key=key, target=target, source=holders[0], size=size)
        self._in_flight[(key, target)] = job
        self._jobs_per_key[key] = self._jobs_per_key.get(key, 0) + 1
        self.stats.scheduled += 1
        self._c_scheduled.inc()
        self._update_backlog()
        if self._tracer is not None:
            self._tracer.emit(REPAIR_SCHEDULE)
        self._launch(job)

    def _launch(self, job: RepairJob) -> None:
        bucket = self._buckets.get(job.source)
        if bucket is None:
            bucket = TokenBucket(rate_bytes_per_sec=self.bandwidth_bps)
            self._buckets[job.source] = bucket
        done_at = bucket.reserve(self.sim.now, job.size)
        self.sim.schedule_at(done_at, lambda: self._finish(job))

    def _finish(self, job: RepairJob) -> None:
        key, target = job.key, job.target
        if self._in_flight.get((key, target)) is not job:
            return  # superseded
        if key not in self.store.directory:
            self._drop(key, target)  # removed or lost meanwhile
            return
        group = self.ring.successors(key, self.store.replica_count)
        if target not in self.ring or target not in group:
            # Target died or the group shifted past it; drop this job and
            # re-derive what the key actually needs now.
            self._drop(key, target)
            self.stats.requeued += 1
            self.reconcile(key)
            return
        if not self.tracker.has_copy(key, job.source):
            # Source died mid-transfer: retry from another survivor.
            self._retry(job)
            return
        self._drop(key, target)
        self.tracker.add_copy(key, target)
        self.stats.completed += 1
        self.stats.repaired_bytes += job.size
        self._c_completed.inc()
        self._c_repaired_bytes.inc(job.size)
        if target == self.ring.successor(key):
            # The owner just finished re-materializing the primary copy, so
            # the primary's physical placement converges here (a crash may
            # have parked it on a surviving secondary).
            self.store.reassign_physical(key, target)
        if self._spans:
            span = self._spans.start_trace(
                "repair.copy", self.sim.now, key=key, target=target, bytes=job.size
            )
            self._spans.finish(span, self.sim.now)
        if self._tracer is not None:
            self._tracer.emit(REPAIR_COMPLETE)

    def _retry(self, job: RepairJob) -> None:
        key, target = job.key, job.target
        survivors = self.tracker.holders_of(key)
        if not survivors:
            self._drop(key, target)
            return  # loss recorded by the crash path
        job.attempts += 1
        if job.attempts > self.max_retries:
            self._drop(key, target)
            self.stats.abandoned += 1
            return
        job.source = survivors[0]
        self.stats.retries += 1
        self._c_retries.inc()
        if self._tracer is not None:
            self._tracer.emit(REPAIR_RETRY)
        backoff = self.retry_delay * (2 ** (job.attempts - 1))
        self.sim.schedule(backoff, lambda: self._relaunch(job))

    def _relaunch(self, job: RepairJob) -> None:
        if self._in_flight.get((job.key, job.target)) is not job:
            return
        self._launch(job)

    def _drop(self, key: int, target: str) -> None:
        del self._in_flight[(key, target)]
        left = self._jobs_per_key.pop(key) - 1
        if left:
            self._jobs_per_key[key] = left
        self._update_backlog()

    # ------------------------------------------------------------------
    # loss ledger

    def _record_loss(self, key: int) -> None:
        size = self.store.destroy_block(key)
        if size is None:
            return
        self.stats.lost_keys += 1
        self.stats.lost_bytes += size
        self.stats.losses.append(LossRecord(key=key, time=self.sim.now, size=size))
        self._c_lost.inc()
        if self._tracer is not None:
            self._tracer.emit(REPAIR_LOSS)

    @property
    def lost_keys(self) -> List[int]:
        return [record.key for record in self.stats.losses]

    # ------------------------------------------------------------------

    def backlog(self) -> int:
        """In-flight repair jobs (scheduled or backing off)."""
        return len(self._in_flight)

    def _update_backlog(self) -> None:
        backlog = len(self._in_flight)
        self._g_backlog.set(backlog)
        if backlog > self.stats.max_backlog:
            self.stats.max_backlog = backlog
        if self._backlog_series is not None:
            self._backlog_series.sample(self.sim.now, float(backlog))
            self._deficit_series.sample(self.sim.now, float(len(self._jobs_per_key)))

    def seed_from_directory(self) -> None:
        """Adopt an already-loaded image: every block sits on its group.

        Called once when a churn run starts against a pre-loaded
        deployment, before any membership change.
        """
        for key in sorted(self.store.directory.keys()):
            self.tracker.place(
                key, self.ring.successors(key, self.store.replica_count)
            )
