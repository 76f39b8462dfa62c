"""Live membership protocols: join, graceful leave, and crash.

Every experiment before this subsystem replayed against a membership-static
ring — failure traces flipped nodes "down" without the ring ever changing.
:class:`MembershipService` makes the ring *dynamic* by driving the three
protocols a production DHT actually runs (the join/leave/kill services of
Leslie's *Reliable Data Storage in Distributed Hash Tables*):

**join**
    The newcomer splits its successor's arc at the load median
    (:func:`repro.dht.ring.load_split_point`) and adopts the new range
    through the existing pointer path — the same deferred migration a
    load-balancing move uses — then the repair scheduler replicates the
    arc's blocks onto the groups the newcomer just entered.

**graceful leave**
    The departing node hands its primary arc to its successor via pointer
    adoption and streams its replica copies out before disconnecting;
    graceful departures never lose data.

**crash**
    An abrupt leave that destroys the node's physical copies.  Surviving
    replicas re-replicate under the bandwidth-capped
    :class:`repro.store.repair.RepairScheduler`; a block whose last copy
    dies before repair lands is recorded in the per-key loss ledger.

The service also replays :class:`repro.sim.failures.FailureTrace` outages
as crash/rejoin pairs and schedules sustained churn storms, so the same
traces that drove the static availability model now exercise real
membership change.  All decisions flow from a seeded RNG and the
simulator's clock — runs are bit-identical serial vs parallel.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.dht.keyspace import KEY_SPACE
from repro.dht.ring import Ring, load_split_point
from repro.obs.events import NODE_JOIN, NODE_LEAVE, EventTracer, register_kind
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.failures import ChurnStormConfig, FailureTrace, generate_churn_ops
from repro.store.migration import StorageCoordinator
from repro.store.repair import RepairScheduler

MEMBERSHIP_JOIN = register_kind("membership.join")
MEMBERSHIP_LEAVE = register_kind("membership.leave")
MEMBERSHIP_CRASH = register_kind("membership.crash")


class MembershipService:
    """Drives ring membership changes through the storage lifecycle.

    Parameters
    ----------
    min_nodes:
        Leaves and crashes that would shrink the ring below this floor are
        refused (counted in ``membership.refused``) — a key must never be
        owner-less, and a replica group needs survivors to repair from.
    """

    def __init__(
        self,
        ring: Ring,
        store: StorageCoordinator,
        sim: Simulator,
        repair: RepairScheduler,
        *,
        rng: Optional[random.Random] = None,
        min_nodes: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
    ) -> None:
        self.ring = ring
        self.store = store
        self.sim = sim
        self.repair = repair
        self.rng = rng if rng is not None else random.Random(0)
        self.min_nodes = (
            min_nodes if min_nodes is not None else max(2, store.replica_count)
        )
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._tracer = tracer
        self._c_joins = self.metrics.counter("membership.joins")
        self._c_leaves = self.metrics.counter("membership.leaves")
        self._c_crashes = self.metrics.counter("membership.crashes")
        self._c_refused = self.metrics.counter("membership.refused")
        self._join_seq = 0

    # ------------------------------------------------------------------
    # the three protocols

    def join(self, name: str, *, position: Optional[int] = None) -> Optional[int]:
        """Add *name* to the ring; returns its position (None if refused).

        Without an explicit *position* the newcomer probes a random ring
        point and splits the load of the node owning it: it takes the arc
        up to that node's load median, so a join relieves the most loaded
        half of an arc exactly like a balancing move does.
        """
        if name in self.ring or len(self.ring) == 0:
            self._c_refused.inc()
            return None
        if position is None:
            probe = self.rng.randrange(KEY_SPACE)
            owner = self.ring.successor(probe)
            split = load_split_point(
                self.store.primary_keys(owner), self.ring.position_of(owner)
            )
            position = split if split is not None else probe
        node_id = self.ring.free_position_at(position)
        self.ring.join(name, node_id)
        new_lo, new_hi = self.ring.range_of(name)
        self.store.hand_off(new_lo, new_hi, name)
        self.repair.on_node_joined(name)
        self._c_joins.inc()
        if self._tracer is not None:
            self._tracer.emit(MEMBERSHIP_JOIN)
            self._tracer.emit(NODE_JOIN)
        return node_id

    def leave(self, name: str) -> bool:
        """Graceful departure of *name*; returns False if refused.

        The successor adopts the vacated arc via a pointer (bytes follow
        at stabilization), and the leaver's replica copies stream out
        through the repair scheduler's hand-off path before it disconnects.
        """
        if name not in self.ring or len(self.ring) <= self.min_nodes:
            self._c_refused.inc()
            return False
        lo, hi = self.ring.range_of(name)
        # Every key the leaver *replicated* gains a new tail group member;
        # capture that arc before the ring forgets the leaver.
        affected = self.ring.replica_range_of(name, self.store.replica_count)
        dropped = self.store.drop_pointer_records_of(name)
        self.ring.leave(name)
        adopter = self.ring.successor(hi)
        self.store.hand_off(lo, hi, adopter)
        # Ranges the leaver had adopted but not yet fetched re-adopt under
        # whoever owns them now (they may lie outside the current primary
        # arc if the leaver moved since adopting them).
        for record in dropped:
            self.store.hand_off(record.lo, record.hi, self.ring.successor(record.hi))
        self.repair.on_node_left(name)
        self.repair.reconcile_range(*affected)
        self._c_leaves.inc()
        if self._tracer is not None:
            self._tracer.emit(MEMBERSHIP_LEAVE)
            self._tracer.emit(NODE_LEAVE)
        return True

    def crash(self, name: str) -> bool:
        """Abrupt kill of *name*; its physical copies are destroyed.

        The new owner adopts the dead arc (pointers are tiny and survive
        on the successor), surviving replicas become the copies of record,
        and the repair scheduler re-replicates — or records a loss when a
        block's whole group died inside one repair window.
        """
        if name not in self.ring or len(self.ring) <= self.min_nodes:
            self._c_refused.inc()
            return False
        affected = self.ring.replica_range_of(name, self.store.replica_count)
        dropped = self.store.drop_pointer_records_of(name)
        self.ring.leave(name)
        # No pointer adoption for the dead primary arc: there is nothing to
        # fetch from a destroyed disk.  Surviving replicas become the copies
        # of record and the repair scheduler re-materializes the primary on
        # the new owner.  Ranges the crashed node had adopted but not yet
        # fetched still live on *other* nodes, so those pointers survive the
        # crash — they re-adopt under their current owners.
        for record in dropped:
            new_owner = self.ring.successor(record.hi)
            self.store.hand_off(record.lo, record.hi, new_owner)
        self.repair.on_node_crashed(name)
        self.repair.reconcile_range(*affected)
        self._c_crashes.inc()
        if self._tracer is not None:
            self._tracer.emit(MEMBERSHIP_CRASH)
            self._tracer.emit(NODE_LEAVE)
        return True

    # ------------------------------------------------------------------
    # trace and storm wiring

    def schedule_failure_trace(self, trace: FailureTrace) -> int:
        """Replay *trace* as membership change: down = crash, up = rejoin.

        A node that comes back after a crash rejoins *empty* (the crash
        destroyed its disk) at a load-derived position, so recovery cost is
        actually paid instead of assumed away.  Returns the number of
        scheduled transitions.
        """
        scheduled = 0
        for event in trace.events:
            if event.up:
                self.sim.schedule_at(
                    event.time, lambda name=event.node: self.join(name)
                )
            else:
                self.sim.schedule_at(
                    event.time, lambda name=event.node: self.crash(name)
                )
            scheduled += 1
        return scheduled

    def schedule_churn_storm(self, config: ChurnStormConfig) -> int:
        """Schedule a sustained join/leave/kill storm; returns op count.

        Join names are fresh (``churn0000``, …); leave and crash victims
        are drawn uniformly from the membership *at fire time* so the storm
        composes with failure traces and with its own joins.
        """
        ops = generate_churn_ops(config, self.rng)
        for op in ops:
            if op.op == "join":
                self.sim.schedule_at(op.time, self._storm_join)
            elif op.op == "leave":
                self.sim.schedule_at(op.time, lambda: self._storm_departure("leave"))
            else:
                self.sim.schedule_at(op.time, lambda: self._storm_departure("crash"))
        return len(ops)

    def _storm_join(self) -> None:
        name = f"churn{self._join_seq:04d}"
        self._join_seq += 1
        self.join(name)

    def _storm_departure(self, op: str) -> None:
        names = sorted(self.ring.names())
        if len(names) <= self.min_nodes:
            self._c_refused.inc()
            return
        victim = names[self.rng.randrange(len(names))]
        if op == "leave":
            self.leave(victim)
        else:
            self.crash(victim)
