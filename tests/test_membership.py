"""Tests for the churn subsystem: join/leave/crash protocols and repair."""

import random

import pytest

from repro.analysis.harness import harvard_deployment
from repro.dht.keyspace import KEY_SPACE
from repro.dht.membership import MembershipService
from repro.dht.ring import Ring
from repro.sim.engine import Simulator
from repro.sim.failures import (
    ChurnStormConfig,
    FailureEvent,
    FailureTrace,
    generate_churn_ops,
)
from repro.store import repair as repair_module
from repro.store.migration import StorageCoordinator
from repro.store.repair import RepairScheduler
from repro.workloads.harvard import HarvardConfig, generate_harvard
from tests.oracles import PerKeyRepairScheduler, job_state, pending_entries


def key_at(thousandth):
    return thousandth * (KEY_SPACE // 1000)


def make_cluster(
    n=6,
    *,
    replica_count=3,
    stabilization=60.0,
    bandwidth=1_000_000.0,
    min_nodes=None,
    seed=7,
):
    ring = Ring()
    for i in range(n):
        ring.join(f"n{i}", (i + 1) * (KEY_SPACE // (n + 1)))
    sim = Simulator()
    store = StorageCoordinator(
        ring,
        sim,
        pointer_stabilization_time=stabilization,
        replica_count=replica_count,
    )
    repair = RepairScheduler(store, sim, bandwidth_bps=bandwidth)
    membership = MembershipService(
        ring, store, sim, repair, rng=random.Random(seed), min_nodes=min_nodes
    )
    return ring, sim, store, repair, membership


def group_fully_held(ring, repair, key, replicas=3):
    group = ring.successors(key, replicas)
    return set(group) <= set(repair.tracker.holders_of(key))


class TestJoin:
    def test_join_adopts_arc_and_replicates(self):
        ring, sim, store, repair, membership = make_cluster()
        keys = [key_at(t) for t in range(10, 400, 10)]
        for key in keys:
            store.write(key, 1000)
        position = membership.join("newbie")
        assert position is not None
        assert "newbie" in ring
        sim.run(until=7200.0)
        for key in keys:
            assert store.physical_holder(key) == ring.successor(key)
            assert group_fully_held(ring, repair, key)
        assert repair.stats.lost_keys == 0

    def test_duplicate_join_refused(self):
        ring, sim, store, repair, membership = make_cluster()
        assert membership.join("n0") is None
        assert membership.metrics.counter("membership.refused").value == 1

    def test_explicit_position_honored(self):
        ring, sim, store, repair, membership = make_cluster()
        desired = key_at(42)
        position = membership.join("pinned", position=desired)
        assert position == desired


class TestGracefulLeave:
    def test_leave_loses_nothing(self):
        ring, sim, store, repair, membership = make_cluster()
        keys = [key_at(t) for t in range(10, 400, 10)]
        for key in keys:
            store.write(key, 1000)
        assert membership.leave("n2")
        assert "n2" not in ring
        sim.run(until=7200.0)
        assert repair.stats.lost_keys == 0
        for key in keys:
            assert key in store.directory
            assert store.physical_holder(key) == ring.successor(key)
            assert group_fully_held(ring, repair, key)
            assert "n2" not in repair.tracker.holders_of(key)

    def test_leave_refused_at_floor(self):
        ring, sim, store, repair, membership = make_cluster(n=3, min_nodes=3)
        assert not membership.leave("n0")
        assert len(ring) == 3

    def test_sole_copy_hands_off_synchronously(self):
        # r=1: the leaver holds the only copy, which must transfer before
        # it disconnects — graceful departures never lose data.
        ring, sim, store, repair, membership = make_cluster(
            n=4, replica_count=1, min_nodes=2
        )
        key = key_at(300)
        store.write(key, 500)
        owner = ring.successor(key)
        assert membership.leave(owner)
        assert key in store.directory
        assert repair.stats.lost_keys == 0
        assert repair.stats.handoff_bytes == 500
        sim.run(until=7200.0)
        assert store.physical_holder(key) == ring.successor(key)


class TestCrash:
    def test_crash_repairs_from_survivors(self):
        ring, sim, store, repair, membership = make_cluster()
        keys = [key_at(t) for t in range(10, 400, 10)]
        for key in keys:
            store.write(key, 1000)
        assert membership.crash("n2")
        sim.run(until=7200.0)
        assert repair.stats.lost_keys == 0
        assert repair.stats.completed > 0
        for key in keys:
            assert key in store.directory
            assert store.physical_holder(key) == ring.successor(key)
            assert group_fully_held(ring, repair, key)
            assert "n2" not in repair.tracker.holders_of(key)

    def test_crash_of_sole_copy_records_loss(self):
        ring, sim, store, repair, membership = make_cluster(
            n=4, replica_count=1, min_nodes=2
        )
        key = key_at(300)
        store.write(key, 500)
        owner = ring.successor(key)
        assert membership.crash(owner)
        assert key not in store.directory
        assert repair.stats.lost_keys == 1
        assert repair.stats.lost_bytes == 500
        assert repair.stats.losses[0].key == key
        # Loss is not a removal: the daily removal series stays clean.
        assert store.ledger.total_removed == 0

    def test_crash_voids_pending_pointers_without_stabilizing(self):
        ring, sim, store, repair, membership = make_cluster(stabilization=3600.0)
        keys = [key_at(t) for t in range(10, 400, 10)]
        for key in keys:
            store.write(key, 1000)
        # Give n2 a pending adoption, then kill it before stabilization.
        position = membership.join("mover")
        assert position is not None
        pending_before = len(store.pointer_table)
        assert pending_before > 0
        assert membership.crash("mover")
        sim.run(until=8000.0)
        assert store.pointer_table.dropped_count > 0
        # The voided records' arcs re-adopted and eventually stabilized
        # under the survivors; no key is left dangling.
        for key in keys:
            assert store.physical_holder(key) == ring.successor(key)


class TestRepairWindow:
    """Loss happens iff a whole replica group dies inside one repair window."""

    def _one_key_cluster(self):
        # 10 B/s repair bandwidth: an 8000-byte block takes 800 s to repair.
        ring, sim, store, repair, membership = make_cluster(
            n=5, replica_count=2, bandwidth=10.0, min_nodes=2
        )
        key = key_at(300)
        store.write(key, 8000)
        first, second = ring.successors(key, 2)
        return ring, sim, store, repair, membership, key, first, second

    def test_second_crash_inside_window_loses_block(self):
        ring, sim, store, repair, membership, key, first, second = (
            self._one_key_cluster()
        )
        assert membership.crash(first)
        sim.run(until=100.0)  # repair needs ~800 s; still in flight
        assert membership.crash(second)
        sim.run(until=20000.0)
        assert key not in store.directory
        assert repair.stats.lost_keys == 1

    def test_second_crash_after_repair_is_survivable(self):
        ring, sim, store, repair, membership, key, first, second = (
            self._one_key_cluster()
        )
        assert membership.crash(first)
        sim.run(until=2000.0)  # repair landed at ~800 s
        assert membership.crash(second)
        sim.run(until=20000.0)
        assert key in store.directory
        assert repair.stats.lost_keys == 0
        assert group_fully_held(ring, repair, key, replicas=2)


class TestChurnProperties:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_churn_sequence_converges(self, seed):
        ring, sim, store, repair, membership = make_cluster(n=8, seed=seed)
        rng = random.Random(100 + seed)
        keys = [key_at(t) for t in range(5, 1000, 25)]
        for key in keys:
            store.write(key, 1000)
        now = 0.0
        for step in range(25):
            now += 600.0
            sim.run(until=now)
            op = rng.choice(["join", "leave", "crash"])
            if op == "join":
                membership.join(f"j{seed}_{step}")
            else:
                names = sorted(ring.names())
                victim = names[rng.randrange(len(names))]
                getattr(membership, op)(victim)
            # No key is ever owner-less: the ring never shrinks below the
            # floor, and every directory key keeps at least one live copy.
            assert len(ring) >= membership.min_nodes
            for key in store.directory.keys():
                assert repair.tracker.live_count(key) >= 1
        sim.run(until=now + 7200.0)
        # Single crashes 600 s apart never kill a whole r=3 group: repair
        # (at test bandwidth) finishes long before the next departure.
        assert repair.stats.lost_keys == 0
        live = set(ring.names())
        for key in keys:
            assert key in store.directory
            assert group_fully_held(ring, repair, key)
            assert set(repair.tracker.holders_of(key)) <= live


class TestTraceAndStorm:
    def test_failure_trace_replays_as_membership_change(self):
        ring, sim, store, repair, membership = make_cluster(n=6)
        for t in range(10, 400, 20):
            store.write(key_at(t), 800)
        trace = FailureTrace(
            ["n1", "n3"],
            [
                FailureEvent(time=100.0, node="n1", up=False),
                FailureEvent(time=5000.0, node="n1", up=True),
                FailureEvent(time=9000.0, node="n3", up=False),
            ],
            duration=20000.0,
        )
        assert membership.schedule_failure_trace(trace) == 3
        sim.run(until=30000.0)
        assert membership.metrics.counter("membership.crashes").value == 2
        assert membership.metrics.counter("membership.joins").value == 1
        assert "n1" in ring and "n3" not in ring
        assert repair.stats.lost_keys == 0

    def test_storm_ops_deterministic(self):
        config = ChurnStormConfig(duration=7200.0, join_rate=6.0, leave_rate=3.0, crash_rate=3.0)
        assert generate_churn_ops(config, random.Random(9)) == generate_churn_ops(
            config, random.Random(9)
        )

    def test_churn_storm_runs_deterministically(self):
        def run_once():
            ring, sim, store, repair, membership = make_cluster(n=10, seed=5)
            for t in range(10, 500, 10):
                store.write(key_at(t), 800)
            scheduled = membership.schedule_churn_storm(
                ChurnStormConfig(
                    duration=6 * 3600.0, join_rate=4.0, leave_rate=2.0, crash_rate=2.0
                )
            )
            sim.run(until=8 * 3600.0)
            return (
                scheduled,
                sorted(ring.names()),
                repair.stats.to_row(),
                membership.metrics.counter("membership.joins").value,
                membership.metrics.counter("membership.leaves").value,
                membership.metrics.counter("membership.crashes").value,
            )

        assert run_once() == run_once()

    def test_storm_respects_min_nodes_floor(self):
        ring, sim, store, repair, membership = make_cluster(n=4, min_nodes=4, seed=2)
        membership.schedule_churn_storm(
            ChurnStormConfig(duration=3600.0, join_rate=0.0, leave_rate=30.0, crash_rate=30.0)
        )
        sim.run(until=7200.0)
        assert len(ring) == 4
        assert membership.metrics.counter("membership.refused").value > 0


class TestRepairBurstsMatchPerKey:
    """The one-pass repair bursts decide, reserve, fire, count, trace and
    sample exactly what the per-key reference scheduler does, through a small
    churn storm: joins, leaves, crashes (one of them correlated) and
    balancer moves, under health monitoring."""

    DURATION = 1.5 * 3600.0

    def storm(self):
        trace = generate_harvard(HarvardConfig(users=1, days=self.DURATION / 86400, seed=4))
        deployment = harvard_deployment(trace, "d2", 10, seed=3)
        membership = deployment.enable_dynamic_membership()
        deployment.enable_health_monitoring()
        membership.schedule_churn_storm(ChurnStormConfig(
            duration=self.DURATION, join_rate=8.0, leave_rate=4.0, crash_rate=5.0,
        ))
        neighbours = list(deployment.ring.names())[:3]  # a whole replica group
        membership.schedule_failure_trace(FailureTrace(neighbours, [
            FailureEvent(time=200.0, node=name, up=False) for name in neighbours
        ], duration=self.DURATION))
        deployment.start_periodic_balancing()
        return deployment, trace

    @staticmethod
    def state(deployment):
        repair, spans, health = deployment.repair, deployment.spans, deployment.health
        return {
            "now": deployment.sim.now,
            "pending": pending_entries(deployment.sim),
            "jobs": [(pair, job_state(job)) for pair, job in repair._in_flight.items()],
            "jobs_per_key": list(repair._jobs_per_key.items()),
            "buckets": [(node, b.available_at) for node, b in repair._buckets.items()],
            "copies": list(repair.tracker._copies.items()),
            "stats": repair.stats,
            "metrics": deployment.metrics.snapshot(),
            "events": deployment.tracer.counts(),
            "spans": (spans.started, spans.finished, spans.counts(), spans.to_dicts()),
            "series": health.bank.stats(),
            "health": health.drain(),
        }

    def test_bursts_match_the_per_key_scheduler(self, monkeypatch):
        burst, trace = self.storm()
        with monkeypatch.context() as patch:
            patch.setattr(repair_module, "RepairScheduler", PerKeyRepairScheduler)
            per_key, _ = self.storm()
        assert isinstance(per_key.repair, PerKeyRepairScheduler)
        assert type(burst.repair) is RepairScheduler
        records = list(trace.records)
        for checkpoint in range(300, int(self.DURATION) + 1, 300):  # every five minutes
            for deployment in (burst, per_key):
                for record in records:
                    if record.time > checkpoint:
                        break
                    deployment.advance_to(record.time)
                    deployment.replay_record(record)
                deployment.advance_to(checkpoint)
            records = [record for record in records if record.time > checkpoint]
            assert self.state(burst) == self.state(per_key), checkpoint
        for deployment in (burst, per_key):
            deployment.stop_periodic_balancing()
            deployment.advance_to(self.DURATION + 3600.0)
        assert self.state(burst) == self.state(per_key)
        assert burst.health.finish() == per_key.health.finish()
        assert burst.health.summary() == per_key.health.summary()
        stats, counters = burst.repair.stats, burst.metrics.counter
        assert stats.scheduled > 200 and stats.gc_bytes > 0 and stats.lost_keys > 0, stats
        assert counters("membership.joins").value and counters("membership.leaves").value
        assert counters("membership.crashes").value > 4 and counters("store.moves").value
