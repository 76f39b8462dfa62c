"""Tests for the availability analysis (replica checker + task evaluation)."""

import pickle
import random

import pytest

from repro.analysis.availability import (
    ReplicaAvailability,
    evaluate_tasks,
    matching_failure_trace,
    run_availability_replay,
)
from repro.core.system import build_deployment
from repro.fs.blocks import BLOCK_SIZE
from repro.sim.failures import FailureEvent, FailureTrace, FailureTraceConfig
from repro.workloads.harvard import HarvardConfig, generate_harvard


def deployment_with_file(n_nodes=12, seed=3):
    d = build_deployment("d2", n_nodes, seed=seed)
    d.bootstrap_volume()
    d.apply_fs_ops(d.fs.create("/f.dat", size=2 * BLOCK_SIZE))
    return d


class TestReplicaAvailability:
    def test_available_when_any_replica_up(self):
        d = deployment_with_file()
        key = d.read_fetches("/f.dat")[1][0]
        group = d.ring.successors(key, d.config.replica_count)
        events = [FailureEvent(10.0, group[0], up=False)]
        failures = FailureTrace(d.node_names, events, duration=1000.0)
        checker = ReplicaAvailability(d, failures, regeneration=False)
        assert checker.key_available(key, 50.0)

    def test_unavailable_when_group_down(self):
        d = deployment_with_file()
        key = d.read_fetches("/f.dat")[1][0]
        group = d.ring.successors(key, d.config.replica_count)
        events = [FailureEvent(10.0, name, up=False) for name in group]
        failures = FailureTrace(d.node_names, events, duration=1000.0)
        checker = ReplicaAvailability(d, failures, regeneration=False)
        assert not checker.key_available(key, 50.0)
        assert checker.misses == 1

    def test_regeneration_restores_after_delay(self):
        d = deployment_with_file()
        key = d.read_fetches("/f.dat")[1][0]
        group = d.ring.successors(key, d.config.replica_count)
        events = [FailureEvent(10.0, name, up=False) for name in group]
        failures = FailureTrace(d.node_names, events, duration=100_000.0)
        checker = ReplicaAvailability(
            d, failures, regeneration=True, regeneration_delay_override=3600.0
        )
        assert not checker.key_available(key, 100.0)
        assert checker.key_available(key, 10.0 + 3601.0)

    def test_regeneration_needs_live_extended_successor(self):
        d = deployment_with_file(n_nodes=5)
        key = d.read_fetches("/f.dat")[1][0]
        # Take down every node: regeneration has nowhere to go.
        events = [FailureEvent(10.0, name, up=False) for name in d.node_names]
        failures = FailureTrace(d.node_names, events, duration=100_000.0)
        checker = ReplicaAvailability(
            d, failures, regeneration=True, regeneration_delay_override=1.0
        )
        assert not checker.key_available(key, 5_000.0)

    def test_recovery_restores_availability(self):
        d = deployment_with_file()
        key = d.read_fetches("/f.dat")[1][0]
        group = d.ring.successors(key, d.config.replica_count)
        events = [FailureEvent(10.0, name, up=False) for name in group]
        events += [FailureEvent(500.0, group[0], up=True)]
        failures = FailureTrace(d.node_names, events, duration=1000.0)
        checker = ReplicaAvailability(d, failures, regeneration=False)
        assert checker.key_available(key, 600.0)

    def test_derived_regeneration_delay_scales_with_data(self):
        d = deployment_with_file()
        failures = FailureTrace(d.node_names, [], duration=1000.0)
        checker = ReplicaAvailability(d, failures, migration_bandwidth_bps=100.0)
        delay_small = checker._regeneration_delay()
        d.apply_fs_ops(d.fs.create("/big.dat", size=50 * BLOCK_SIZE))
        assert checker._regeneration_delay() > delay_small


def run_trial(trace, failures, system, inter):
    """Replay once, then evaluate at one *inter*."""
    return evaluate_tasks(trace, run_availability_replay(trace, failures, system), inter)


class TestTrialIntegration:
    @pytest.fixture(scope="class")
    def setup(self):
        trace = generate_harvard(HarvardConfig(users=3, days=0.5, seed=4))
        config = FailureTraceConfig(
            duration=0.5 * 86400,
            mttf=86400.0,
            mttr=4 * 3600.0,
            correlated_events=2,
            correlated_fraction=0.3,
            correlated_repair=2 * 3600.0,
        )
        failures = matching_failure_trace(16, random.Random(1), config)
        return trace, failures

    def test_replay_produces_log(self, setup):
        trace, failures = setup
        log = run_availability_replay(trace, failures, "d2", trial=0)
        assert log.ok  # some access records evaluated
        assert log.system == "d2"

    def test_one_log_many_inters(self, setup):
        trace, failures = setup
        log = run_availability_replay(trace, failures, "traditional", trial=0)
        r1 = evaluate_tasks(trace, log, inter=1.0)
        r60 = evaluate_tasks(trace, log, inter=60.0)
        assert r1.tasks >= r60.tasks
        assert r1.mean_blocks_per_task <= r60.mean_blocks_per_task

    def test_log_evaluates_against_a_regenerated_trace(self, setup):
        """A log names records by position, so one computed in a worker
        (and pickled back) evaluates against the parent's own trace."""
        trace, failures = setup
        log = run_availability_replay(trace, failures, "d2", trial=0)
        twin = generate_harvard(HarvardConfig(users=3, days=0.5, seed=4))
        shipped = pickle.loads(pickle.dumps(log))
        assert evaluate_tasks(twin, shipped, 5.0) == evaluate_tasks(trace, log, 5.0)

    def test_trial_consistency(self, setup):
        trace, failures = setup
        result = run_trial(trace, failures, "d2", inter=5.0)
        assert 0.0 <= result.unavailability <= 1.0
        assert result.tasks == sum(result.per_user_tasks.values())
        assert result.failed_tasks == sum(result.per_user_failed.values())

    def test_d2_spreads_over_fewer_nodes(self, setup):
        trace, failures = setup
        d2 = run_trial(trace, failures, "d2", inter=5.0)
        trad = run_trial(trace, failures, "traditional", inter=5.0)
        assert d2.mean_nodes_per_task < trad.mean_nodes_per_task
        # Same workload -> same objects per task.
        assert d2.mean_blocks_per_task == pytest.approx(
            trad.mean_blocks_per_task, rel=0.05
        )

    def test_ranked_per_user(self, setup):
        trace, failures = setup
        result = run_trial(trace, failures, "traditional", inter=5.0)
        ranked = result.ranked_user_unavailability()
        values = [v for _, v in ranked]
        assert values == sorted(values, reverse=True)
