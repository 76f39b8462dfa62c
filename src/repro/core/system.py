"""Deployment facade: a complete simulated DHT file system.

A :class:`Deployment` wires together everything one of the paper's
comparison systems needs — ring, storage coordinator, file-system layer,
key scheme, and (for D2 and Traditional+Merc) the active load balancer —
behind the small API the examples and experiment drivers use:

>>> d = build_deployment("d2", n_nodes=64, seed=1)
>>> _ = d.bootstrap_volume()
>>> _ = d.apply_fs_ops(d.fs.makedirs("/home/alice"))
>>> _ = d.apply_fs_ops(d.fs.create("/home/alice/notes.txt", size=40_000))
>>> fetches = d.read_fetches("/home/alice/notes.txt")
>>> len({d.ring.successor(key) for key, _ in fetches}) <= 3   # locality!
True

Systems
-------
``d2``
    Locality-preserving keys + Karger–Ruhl balancing + pointers.
``traditional``
    One hashed key per block, consistent hashing, no balancing.
``traditional-file``
    One hashed key per file, consistent hashing, no balancing.
``traditional+merc``
    Hashed block keys *plus* active balancing (Figure 16's reference line).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import D2Config
from repro.core.lookup_cache import LookupCache
from repro.dht.consistent_hashing import random_node_ids
from repro.dht.load_balance import KargerRuhlBalancer
from repro.dht.ring import Ring
from repro.fs.blocks import BlockKind
from repro.fs.fslayer import BlockOp, DhtFileSystem, apply_ops
from repro.fs.keyschemes import make_scheme
from repro.fs.namespace import NamespaceError
from repro.obs.events import NODE_JOIN, EventTracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer as SpanTracer
from repro.sim.engine import PeriodicTask, Simulator
from repro.store.migration import StorageCoordinator
from repro.workloads.trace import (
    CREATE,
    DELETE,
    MKDIR,
    READ,
    RENAME,
    Trace,
    TraceRecord,
    WRITE,
)

SYSTEMS = ("d2", "traditional", "traditional-file", "traditional+merc")


@dataclass
class ReplayOutcome:
    """What replaying one trace record needed and did.

    ``fetches``/``stores`` are ``(key, nbytes)`` pairs: the DHT reads a
    read record required, or the DHT writes a mutation implied (data and
    inode blocks; directory metadata is assumed client-cached for
    dependency purposes, matching the paper's task-availability model).
    ``files`` is the number of distinct files touched (Table 2).
    """

    record: TraceRecord
    fetches: List[Tuple[int, int]] = field(default_factory=list)
    stores: List[Tuple[int, int]] = field(default_factory=list)
    files: int = 0
    skipped: bool = False

    @property
    def keys(self) -> List[int]:
        return [key for key, _ in self.fetches] + [key for key, _ in self.stores]

    @property
    def blocks(self) -> int:
        return len(self.fetches) + len(self.stores)


class Deployment:
    """One simulated system instance (see module docstring)."""

    def __init__(self, system: str, config: D2Config, seed: int, n_nodes: int,
                 volume: str = "vol") -> None:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
        self.system = system
        self.config = config.validate()
        self.rng = random.Random(seed)
        self.metrics = MetricsRegistry()
        self.tracer = EventTracer()
        # Span tracer: sampled per $REPRO_TRACE_SAMPLE (falsy at <= 0, so
        # instrumented hot paths pay only a truthiness check).
        self.spans = SpanTracer.from_env(events=self.tracer, seed=seed)
        self.sim = Simulator(registry=self.metrics)
        self.ring = Ring()
        self.node_names = [f"node{i:04d}" for i in range(n_nodes)]
        for name, node_id in zip(self.node_names, random_node_ids(n_nodes, self.rng)):
            self.ring.join(name, node_id)
            self.tracer.emit(NODE_JOIN)
        self.store = StorageCoordinator(
            self.ring,
            self.sim,
            pointer_stabilization_time=config.pointer_stabilization_time,
            use_pointers=config.use_pointers,
            removal_delay=config.removal_delay,
            replica_count=config.replica_count,
            registry=self.metrics,
            tracer=self.tracer,
            spans=self.spans,
        )
        scheme_name = "traditional" if system == "traditional+merc" else system
        self.fs = DhtFileSystem(make_scheme(scheme_name, volume))
        self.balancer: Optional[KargerRuhlBalancer] = None
        if system in ("d2", "traditional+merc") and config.active_load_balancing:
            self.balancer = KargerRuhlBalancer(
                self.ring,
                self.store,
                threshold=config.balance_threshold,
                rng=random.Random(seed + 1),
                registry=self.metrics,
                tracer=self.tracer,
                spans=self.spans,
            )
        self._probe_task: Optional[PeriodicTask] = None
        self._lookup_caches: Dict[str, LookupCache] = {}
        self.seed = seed
        self.membership = None  # MembershipService, set by enable_dynamic_membership
        self.repair = None      # RepairScheduler, set alongside it
        self.accelerator = None  # LookupAccelerator, set by enable_acceleration
        self.health = None      # HealthMonitor, set by enable_health_monitoring

    def enable_dynamic_membership(self, *, min_nodes: Optional[int] = None):
        """Attach live join/leave/crash protocols with replica repair.

        Builds the :class:`repro.store.repair.RepairScheduler` (bandwidth
        capped at the config's migration rate) and the
        :class:`repro.dht.membership.MembershipService`, seeds the replica
        tracker from the already-loaded directory, and returns the service.
        Idempotent; call after :meth:`load_initial_image`/:meth:`stabilize`
        so the seeded copies reflect the settled ring.
        """
        if self.membership is not None:
            return self.membership
        from repro.dht.membership import MembershipService
        from repro.store.repair import RepairScheduler

        self.repair = RepairScheduler(
            self.store,
            self.sim,
            bandwidth_bps=self.config.migration_bandwidth_bps,
            registry=self.metrics,
            tracer=self.tracer,
            spans=self.spans,
        )
        self.repair.seed_from_directory()
        self.membership = MembershipService(
            self.ring,
            self.store,
            self.sim,
            self.repair,
            rng=random.Random(self.seed + 0x5EED),
            min_nodes=min_nodes,
            registry=self.metrics,
            tracer=self.tracer,
        )
        if self.health is not None:
            # Monitoring was enabled first: attach the repair push hooks.
            self.repair.attach_timeseries(self.health.bank)
        return self.membership

    # ------------------------------------------------------------------
    # setup

    def bootstrap_volume(self) -> List[BlockOp]:
        ops = self.fs.format()
        apply_ops(self.store, ops)
        return ops

    def load_initial_image(self, trace: Trace) -> None:
        """Insert a trace's initial directories and files into the DHT."""
        self.bootstrap_volume()
        for directory in trace.initial_dirs:
            if not self.fs.namespace.exists(directory):
                apply_ops(self.store, self.fs.makedirs(directory))
        for path, size in trace.initial_files:
            parent = path.rsplit("/", 1)[0] or "/"
            if parent != "/" and not self.fs.namespace.exists(parent):
                apply_ops(self.store, self.fs.makedirs(parent))
            apply_ops(self.store, self.fs.create(path, size=size))

    def stabilize(self, max_rounds: int = 300) -> int:
        """Run balancing to convergence and materialize all pointers.

        Mirrors the paper's initialization: "the load balancing process is
        simulated for 3 days so that node positions stabilize".  No-op for
        systems without a balancer.
        """
        if self.balancer is None:
            return 0
        rounds = self.balancer.balance_until_stable(max_rounds=max_rounds)
        self.store.flush_all_pointers()
        return rounds

    def start_periodic_balancing(self) -> None:
        """Schedule probe rounds every probe interval on the simulator."""
        if self.balancer is None or self._probe_task is not None:
            return
        jitter = lambda: self.rng.uniform(-0.05, 0.05) * self.config.probe_interval
        self._probe_task = self.sim.schedule_periodic(
            self.config.probe_interval,
            lambda: self.balancer.probe_round(self.sim.now),
            jitter=jitter,
        )

    def stop_periodic_balancing(self) -> None:
        if self._probe_task is not None:
            self._probe_task.cancel()
            self._probe_task = None

    def enable_health_monitoring(
        self,
        *,
        window: float = 900.0,
        rules=None,
        node_level: bool = True,
        retention: int = 32768,
    ):
        """Attach sim-time SLO monitoring (:class:`repro.obs.health.HealthMonitor`).

        Samples membership/repair/balancer/lookup state at every *window*
        seconds of sim-time, evaluates the SLO rules (``rules=None`` means
        :func:`repro.obs.health.default_rules`) on closed windows, and
        buffers series + alert rows for :meth:`HealthMonitor.drain` /
        JSONL streaming.  Enable *after* ``enable_dynamic_membership`` so
        the repair scheduler's push hooks attach.  Idempotent; returns
        the monitor (also at ``self.health``).
        """
        if self.health is not None:
            return self.health
        from repro.obs.health import HealthMonitor

        self.health = HealthMonitor(
            self,
            window=window,
            rules=rules,
            node_level=node_level,
            retention=retention,
        )
        self.health.start()
        return self.health

    def enable_acceleration(self, mode: str = "cache", **kwargs):
        """Attach a :class:`repro.core.accel.LookupAccelerator`.

        *mode* is one of :data:`repro.core.accel.ACCEL_MODES`; extra
        keyword arguments (static capacity, budget, learned-index sizing)
        pass through to the accelerator.  Idempotent for a given mode;
        asking for a different mode on a live accelerator is an error —
        build a fresh deployment per mode so rows never share tier state.
        """
        if self.accelerator is not None:
            if self.accelerator.mode != mode:
                raise ValueError(
                    f"acceleration already enabled in mode "
                    f"{self.accelerator.mode!r}; cannot switch to {mode!r}"
                )
            return self.accelerator
        from repro.core.accel import LookupAccelerator

        self.accelerator = LookupAccelerator(
            self.ring,
            mode=mode,
            ttl=kwargs.pop("ttl", self.config.lookup_cache_ttl),
            seed=kwargs.pop("seed", self.seed),
            registry=self.metrics,
            tracer=self.tracer,
            spans=self.spans,
            **kwargs,
        )
        return self.accelerator

    def lookup_cache_for(self, client: str) -> LookupCache:
        cache = self._lookup_caches.get(client)
        if cache is None:
            cache = LookupCache(
                ttl=self.config.lookup_cache_ttl,
                ring=self.ring,
                registry=self.metrics,
                tracer=self.tracer,
            )
            self._lookup_caches[client] = cache
        return cache

    # ------------------------------------------------------------------
    # FS plumbing

    def apply_fs_ops(self, ops: Sequence[BlockOp]) -> Dict[str, int]:
        return apply_ops(self.store, ops)

    def read_fetches(self, path: str, offset: int = 0,
                     length: Optional[int] = None) -> List[Tuple[int, int]]:
        """(key, nbytes) the DHT must serve for a read (inode + data).

        Planned by :meth:`DhtFileSystem.read_fetches` (which see for
        *offset* / *length*) on the resolved file.  Under traditional-file
        all pairs share the file's single key but remain per-block, so
        transfer accounting still sees 8 KB units.
        """
        return self.fs.read_fetches(self.fs.namespace.resolve_file(path), offset, length)

    def read_fetches_many(
        self, requests: Iterable[Tuple[str, int, Optional[int]]]
    ) -> List[List[Tuple[int, int]]]:
        """Batched :meth:`read_fetches` over a replay window.

        *requests* is any iterable of ``(path, offset, length)`` sequences;
        the result list is aligned with it, each entry exactly what
        :meth:`read_fetches` would return for that triple (and the same
        exception for the first request that would raise).  A replay
        window repeats few distinct requests many times, so each distinct
        triple is resolved, sized and keyed once per call; repeats get
        their own list over the same immutable ``(key, nbytes)`` pairs.
        Nothing is kept between calls — the namespace cannot change
        inside one, so there is nothing to invalidate.  A caller that
        keeps an answer across calls must know nothing flushed in between
        (``fs.root_version`` unchanged), as the read-only replay of
        :func:`repro.analysis.scale.run_scale_read` does.
        """
        resolve = self.fs.namespace.resolve_file
        fetches_for = self.fs.read_fetches
        distinct: Dict[Tuple[str, int, Optional[int]], List[Tuple[int, int]]] = {}
        results: List[List[Tuple[int, int]]] = []
        for path, offset, length in requests:
            request = (path, offset, length)
            fetches = distinct.get(request)
            if fetches is None:
                fetches = distinct[request] = fetches_for(resolve(path), offset, length)
            else:
                fetches = fetches[:]
            results.append(fetches)
        return results

    # ------------------------------------------------------------------
    # trace replay

    def replay_record(self, record: TraceRecord) -> ReplayOutcome:
        """Apply one trace record; returns the DHT work it implied.

        Mutations change FS and store state; reads only report fetches.
        Records referencing paths that do not exist (cross-user timing
        races in a synthetic trace) are skipped and flagged.
        """
        outcome = ReplayOutcome(record=record)
        try:
            if record.op == READ:
                outcome.fetches = self.read_fetches(
                    record.path, record.offset, record.length or None
                )
                outcome.files = 1
            elif record.op == WRITE:
                if not self.fs.namespace.exists(record.path):
                    ops = self.fs.create(record.path, size=record.offset + record.length)
                else:
                    ops = self.fs.write(record.path, record.offset, record.length)
                self.apply_fs_ops(ops)
                outcome.stores = _file_block_puts(ops)
                outcome.files = 1
            elif record.op == CREATE:
                ops = self.fs.create(record.path, size=record.size)
                self.apply_fs_ops(ops)
                outcome.stores = _file_block_puts(ops)
                outcome.files = 1
            elif record.op == DELETE:
                self.apply_fs_ops(self.fs.remove(record.path))
                outcome.files = 1
            elif record.op == MKDIR:
                if not self.fs.namespace.exists(record.path):
                    self.apply_fs_ops(self.fs.makedirs(record.path))
                outcome.files = 1
            elif record.op == RENAME:
                self.apply_fs_ops(self.fs.rename(record.path, record.dst_path))
                outcome.files = 1
        except NamespaceError:
            outcome.skipped = True
        return outcome

    def advance_to(self, time: float) -> None:
        """Run the simulator (removals, stabilizations, probes) up to *time*."""
        if time > self.sim.now:
            self.sim.run(until=time)

    # ------------------------------------------------------------------
    # reporting

    def describe(self) -> Dict[str, object]:
        return {
            "system": self.system,
            "nodes": len(self.ring),
            "blocks": len(self.store.directory),
            "bytes": self.store.directory.total_bytes,
            "balancer_moves": self.store.moves_executed,
            "pointer_blocks": self.store.pointer_block_count(),
        }

    def observability_snapshot(self) -> Dict[str, object]:
        """Full metric + event snapshot of this deployment, JSON-ready.

        Counters accumulate over the deployment's whole life (including
        initial stabilization); gauges are refreshed here, at snapshot
        time.  The shape matches one report run entry minus ``labels``
        (see :mod:`repro.obs.report`).
        """
        self.metrics.gauge("ring.nodes").set(len(self.ring))
        self.metrics.gauge("store.blocks").set(len(self.store.directory))
        self.metrics.gauge("store.bytes").set(self.store.directory.total_bytes)
        self.metrics.gauge("pointer.blocks").set(self.store.pointer_block_count())
        self.metrics.gauge("pointer.pending_ranges").set(len(self.store.pointer_table))
        self.metrics.gauge("sim.now").set(self.sim.now)
        caches = list(self._lookup_caches.values())
        if self.accelerator is not None:
            caches.extend(self.accelerator.caches.values())
        if caches:
            self.metrics.gauge("lookup.caches").set(len(caches))
            self.metrics.gauge("lookup.occupancy").set(
                sum(len(cache) for cache in caches)
            )
            hits = self.metrics.counter("lookup.hits").value
            lookups = hits + self.metrics.counter("lookup.misses").value
            self.metrics.gauge("lookup.hit_ratio").set(
                hits / lookups if lookups else 0.0
            )
        snapshot: Dict[str, object] = self.metrics.snapshot(include_reservoirs=True)
        snapshot["events"] = self.tracer.counts()
        if self.health is not None:
            snapshot["health"] = self.health.summary()
        return snapshot


def _file_block_puts(ops: Sequence[BlockOp]) -> List[Tuple[int, int]]:
    """Put ops that are per-file dependencies: data blocks and the inode.

    Directory/root metadata is excluded from task dependencies (clients
    cache it), matching the availability model of Section 8.
    """
    return [
        (op.key, op.size)
        for op in ops
        if op.action == "put" and op.kind in (BlockKind.DATA, BlockKind.INODE)
    ]


def build_deployment(
    system: str,
    n_nodes: int,
    *,
    config: Optional[D2Config] = None,
    seed: int = 0,
    volume: str = "vol",
) -> Deployment:
    """Construct a deployment with paper-default configuration."""
    return Deployment(system, config or D2Config(), seed, n_nodes, volume=volume)
