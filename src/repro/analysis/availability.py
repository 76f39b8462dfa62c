"""Task availability under node failures (Section 8; Figures 7, 8, Table 2).

A *task* (Section 8.1) is a burst of same-user accesses; it **fails** if any
block it needs has no live replica at access time.  The experiment replays
the Harvard-like workload through one of the comparison systems while nodes
fail and recover according to a failure trace, and reports the fraction of
failed tasks.

Replica-availability models
---------------------------
Two models answer "is this key readable now?":

**Static ring (the paper's first-order model).**  Membership does not
shrink on failure — transient PlanetLab-style failures keep data on disk,
so a recovered node serves again immediately.  A key is available when

* any of its ``r`` successors is up, **or**
* (with regeneration enabled) the whole group has been down long enough
  that re-replication onto the next live successors completed.  The
  regeneration delay is the failed nodes' data volume divided by the
  750 kbps per-node migration cap — the same first-order model the paper's
  simulator applies; the paper notes regeneration only *raises* per-group
  availability above the no-regeneration baseline.

**Dynamic ring (simulated repair).**  With ``dynamic=True`` the failure
trace drives real membership change through
:class:`repro.dht.membership.MembershipService`: a down transition crashes
the node (ring leave + physical copies destroyed) and an up transition
rejoins it empty.  Availability is then read straight off the
:class:`repro.store.repair.ReplicaTracker` — a key is available iff a
live copy exists *right now* — so repair latency, bandwidth backlog, and
genuine data loss replace the closed-form delay.

Dependencies counted per task are file blocks (data + inode); directory
metadata is client-cached (see :mod:`repro.core.system`).  D2 keeps its
active load balancing running during the replay, so the availability cost
of in-flight pointers and moves is captured.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import D2Config
from repro.core.system import Deployment, build_deployment
from repro.sim.failures import FailureTrace
from repro.workloads.tasks import segment_tasks
from repro.workloads.trace import READ, Trace, WRITE


@dataclass
class AvailabilityResult:
    """Outcome of one availability trial."""

    system: str
    inter: float
    trial: int
    tasks: int
    failed_tasks: int
    per_user_tasks: Dict[str, int]
    per_user_failed: Dict[str, int]
    mean_blocks_per_task: float
    mean_files_per_task: float
    mean_nodes_per_task: float
    skipped_records: int = 0

    @property
    def unavailability(self) -> float:
        return self.failed_tasks / self.tasks if self.tasks else 0.0

    def per_user_unavailability(self) -> Dict[str, float]:
        """Figure 8's per-user series (0.0 entries included)."""
        return {
            user: self.per_user_failed.get(user, 0) / count
            for user, count in self.per_user_tasks.items()
            if count > 0
        }

    def ranked_user_unavailability(self) -> List[Tuple[str, float]]:
        series = self.per_user_unavailability()
        return sorted(series.items(), key=lambda item: item[1], reverse=True)


class ReplicaAvailability:
    """Answers "is this key readable now?" against ring + failure state.

    With *repair* (a :class:`repro.store.repair.RepairScheduler`), the
    check consults actually-simulated replica state instead of the
    closed-form regeneration model: a key is available iff its tracker
    records at least one live physical copy (copies on crashed nodes are
    destroyed at crash time, so the tracker only ever names live holders).
    """

    def __init__(
        self,
        deployment: Deployment,
        failures: FailureTrace,
        *,
        regeneration: bool = True,
        migration_bandwidth_bps: float = 93750.0,  # 750 kbps
        regeneration_delay_override: Optional[float] = None,
        repair=None,
    ) -> None:
        self._deployment = deployment
        self._failures = failures
        self._regeneration = regeneration
        self._bandwidth = migration_bandwidth_bps
        self._delay_override = regeneration_delay_override
        self._repair = repair
        self.checks = 0
        self.misses = 0

    def key_available(self, key: int, now: float) -> bool:
        self.checks += 1
        if self._repair is not None:
            if self._repair.tracker.live_count(key) > 0:
                return True
            self.misses += 1
            return False
        ring = self._deployment.ring
        replicas = self._deployment.config.replica_count
        group = ring.successors(key, replicas)
        newest_down = None
        for name in group:
            since = self._failures.down_since(name, now)
            if since is None:
                return True
            newest_down = since if newest_down is None else max(newest_down, since)
        if self._regeneration and newest_down is not None:
            # The group went fully dark at `newest_down`; regeneration onto
            # the next live successors starts then and completes after the
            # lost volume drains through the migration cap.
            if now - newest_down >= self._regeneration_delay():
                extended = ring.successors(key, replicas + 2)[replicas:]
                for name in extended:
                    if self._failures.is_up(name, now):
                        return True
        self.misses += 1
        return False

    def _regeneration_delay(self) -> float:
        if self._delay_override is not None:
            return self._delay_override
        directory = self._deployment.store.directory
        n = max(1, len(self._deployment.ring))
        replicas = self._deployment.config.replica_count
        per_node_bytes = directory.total_bytes * replicas / n
        if self._bandwidth <= 0:
            return float("inf")
        return per_node_bytes / self._bandwidth


def matching_failure_trace(
    n_nodes: int,
    rng,
    config=None,
) -> FailureTrace:
    """Failure trace whose node names match :class:`Deployment`'s naming."""
    from repro.sim.failures import FailureTraceConfig

    names = [f"node{i:04d}" for i in range(n_nodes)]
    return FailureTrace.generate(names, rng, config or FailureTraceConfig())


@dataclass
class ReplayLog:
    """Per-record outcomes of one full availability replay.

    The expensive part of a trial — replaying the trace through a system
    under a failure trace — does not depend on the task threshold *inter*,
    so one log serves every segmentation (Figure 7 sweeps four values).
    """

    system: str
    trial: int
    ok: Dict[int, bool]           # id(record) -> all keys available
    blocks: Dict[int, int]        # id(record) -> block count
    owners: Dict[int, List[str]]  # id(record) -> primary owners touched
    skipped_records: int


def run_availability_replay(
    trace: Trace,
    failures: FailureTrace,
    system: str,
    *,
    trial: int = 0,
    config: Optional[D2Config] = None,
    regeneration: bool = True,
    regeneration_delay: Optional[float] = None,
    stabilize_rounds: int = 300,
    dynamic: bool = False,
) -> ReplayLog:
    """Replay *trace* through *system* under *failures* once.

    ``trial`` seeds node IDs (the paper runs 5 trials with random IDs).
    With ``dynamic=True`` the failure trace is replayed as real membership
    change (crash/rejoin protocols with simulated repair) instead of the
    static up/down overlay.
    """
    config = config or D2Config()
    deployment = build_deployment(
        system, len(failures.nodes), config=config, seed=1000 + trial
    )
    deployment.load_initial_image(trace)
    deployment.stabilize(max_rounds=stabilize_rounds)
    deployment.store.ledger = type(deployment.store.ledger)()  # reset accounting
    deployment.start_periodic_balancing()

    repair = None
    if dynamic:
        membership = deployment.enable_dynamic_membership()
        membership.schedule_failure_trace(failures)
        repair = deployment.repair

    checker = ReplicaAvailability(
        deployment,
        failures,
        regeneration=regeneration,
        migration_bandwidth_bps=config.migration_bandwidth_bps,
        regeneration_delay_override=regeneration_delay,
        repair=repair,
    )

    log = ReplayLog(system=system, trial=trial, ok={}, blocks={}, owners={}, skipped_records=0)
    for record in trace.records:
        deployment.advance_to(record.time)
        outcome = deployment.replay_record(record)
        if outcome.skipped:
            log.skipped_records += 1
            continue
        if record.op not in (READ, WRITE):
            continue
        ok = True
        owners = []
        for key in outcome.keys:
            owners.append(deployment.ring.successor(key))
            if ok and not checker.key_available(key, record.time):
                ok = False
        log.ok[id(record)] = ok
        log.blocks[id(record)] = outcome.blocks
        log.owners[id(record)] = owners
    return log


def evaluate_tasks(trace: Trace, log: ReplayLog, inter: float) -> AvailabilityResult:
    """Aggregate a replay log into task-level availability at one *inter*."""
    tasks = segment_tasks(trace, inter)
    failed = [False] * len(tasks)
    blocks_per_task = [0] * len(tasks)
    file_sets: List[set] = [set() for _ in tasks]
    node_sets: List[set] = [set() for _ in tasks]
    for index, task in enumerate(tasks):
        for record in task.records:
            rid = id(record)
            if rid not in log.ok:
                continue
            blocks_per_task[index] += log.blocks[rid]
            file_sets[index].add(record.path)
            node_sets[index].update(log.owners[rid])
            if not log.ok[rid]:
                failed[index] = True

    per_user_tasks: Dict[str, int] = defaultdict(int)
    per_user_failed: Dict[str, int] = defaultdict(int)
    for task, did_fail in zip(tasks, failed):
        per_user_tasks[task.user] += 1
        if did_fail:
            per_user_failed[task.user] += 1

    return AvailabilityResult(
        system=log.system,
        inter=inter,
        trial=log.trial,
        tasks=len(tasks),
        failed_tasks=sum(failed),
        per_user_tasks=dict(per_user_tasks),
        per_user_failed=dict(per_user_failed),
        mean_blocks_per_task=_mean(blocks_per_task),
        mean_files_per_task=_mean([len(s) for s in file_sets]),
        mean_nodes_per_task=_mean([len(s) for s in node_sets]),
        skipped_records=log.skipped_records,
    )


def run_availability_trial(
    trace: Trace,
    failures: FailureTrace,
    system: str,
    inter: float,
    *,
    trial: int = 0,
    config: Optional[D2Config] = None,
    regeneration: bool = True,
    regeneration_delay: Optional[float] = None,
    stabilize_rounds: int = 300,
) -> AvailabilityResult:
    """One-shot convenience: replay then evaluate at a single *inter*."""
    log = run_availability_replay(
        trace,
        failures,
        system,
        trial=trial,
        config=config,
        regeneration=regeneration,
        regeneration_delay=regeneration_delay,
        stabilize_rounds=stabilize_rounds,
    )
    return evaluate_tasks(trace, log, inter)


def _mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
