"""Task availability under node failures (Section 8; Figures 7, 8, Table 2).

A *task* (Section 8.1) is a burst of same-user accesses; it **fails** if any
block it needs has no live replica at access time.  The experiment replays
the Harvard-like workload through one of the comparison systems while nodes
fail and recover according to a failure trace, and reports the fraction of
failed tasks.

Replica availability (the paper's first-order model)
----------------------------------------------------
Membership does not shrink on failure — transient PlanetLab-style
failures keep data on disk, so a recovered node serves again
immediately.  A key is available when

* any of its ``r`` successors is up, **or**
* the whole group has been down long enough that re-replication onto the
  next live successors completed.  The regeneration delay is the failed
  nodes' data volume divided by the deployment's per-node migration cap
  (750 kbps) — the same first-order model the paper's
  simulator applies; the paper notes regeneration only *raises* per-group
  availability above the no-regeneration baseline.

Live membership change with simulated repair and real data loss is the
churn storm's business (:mod:`repro.analysis.churn`).

Dependencies counted per task are file blocks (data + inode); directory
metadata is client-cached (see :mod:`repro.core.system`).  D2 keeps its
active load balancing running during the replay, so the availability cost
of in-flight pointers and moves is captured.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.harness import harvard_deployment, replay
from repro.core.config import D2Config
from repro.core.system import Deployment, ReplayOutcome
from repro.sim.failures import FailureTrace, FailureTraceConfig
from repro.workloads.tasks import segment_tasks
from repro.workloads.trace import READ, Trace, TraceRecord, WRITE


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
    """Answers "is this key readable now?" against ring + failure state."""

    def __init__(
        self,
        deployment: Deployment,
        failures: FailureTrace,
        *,
        regeneration_delay_override: Optional[float] = None,
    ) -> None:
        self._deployment = deployment
        self._failures = failures
        self._delay_override = regeneration_delay_override

    def key_available(self, key: int, now: float) -> bool:
        ring = self._deployment.ring
        replicas = self._deployment.config.replica_count
        group = ring.successors(key, replicas)
        newest_down = None
        for name in group:
            since = self._failures.down_since(name, now)
            if since is None:
                return True
            newest_down = since if newest_down is None else max(newest_down, since)
        if newest_down is not None:
            # The group went fully dark at `newest_down`; regeneration onto
            # the next live successors starts then and completes after the
            # lost volume drains through the migration cap.
            if now - newest_down >= self._regeneration_delay():
                extended = ring.successors(key, replicas + 2)[replicas:]
                for name in extended:
                    if self._failures.is_up(name, now):
                        return True
        return False

    def _regeneration_delay(self) -> float:
        if self._delay_override is not None:
            return self._delay_override
        directory = self._deployment.store.directory
        n = max(1, len(self._deployment.ring))
        replicas = self._deployment.config.replica_count
        per_node_bytes = directory.total_bytes * replicas / n
        return per_node_bytes / self._deployment.config.migration_bandwidth_bps


def matching_failure_trace(n_nodes: int, rng, config: FailureTraceConfig) -> FailureTrace:
    """Failure trace whose node names match :class:`Deployment`'s naming."""
    names = [f"node{i:04d}" for i in range(n_nodes)]
    return FailureTrace.generate(names, rng, config)


@dataclass
class ReplayLog:
    """Per-record outcomes of one full availability replay.

    The expensive part of a trial — replaying the trace through a system
    under a failure trace — does not depend on the task threshold *inter*,
    so one log serves every segmentation (Figure 7 sweeps four values).
    Records are named by their index in ``trace.records``, which means
    the same record in every process that generates the trace, so a log
    computed in a worker evaluates in the parent.
    """

    system: str
    trial: int
    ok: Dict[int, bool]           # record index -> all keys available
    blocks: Dict[int, int]        # record index -> block count
    owners: Dict[int, List[str]]  # record index -> primary owners touched
    skipped_records: int


def run_availability_replay(
    trace: Trace,
    failures: FailureTrace,
    system: str,
    *,
    trial: int = 0,
    config: Optional[D2Config] = None,
    regeneration_delay: Optional[float] = None,
) -> ReplayLog:
    """Replay *trace* through *system* under *failures* once.

    ``trial`` seeds node IDs (the paper runs 5 trials with random IDs).
    """
    config = config or D2Config()
    deployment = harvard_deployment(
        trace, system, len(failures.nodes), seed=1000 + trial, config=config
    )
    deployment.start_periodic_balancing()
    checker = ReplicaAvailability(
        deployment, failures, regeneration_delay_override=regeneration_delay
    )
    index_of = _record_indices(trace)
    log = ReplayLog(system=system, trial=trial, ok={}, blocks={}, owners={}, skipped_records=0)

    def measure(record: TraceRecord, outcome: ReplayOutcome) -> None:
        if outcome.skipped:
            log.skipped_records += 1
            return
        if record.op not in (READ, WRITE):
            return
        ok = True
        owners = []
        for key in outcome.keys:
            owners.append(deployment.ring.successor(key))
            if ok and not checker.key_available(key, record.time):
                ok = False
        index = index_of[id(record)]
        log.ok[index] = ok
        log.blocks[index] = outcome.blocks
        log.owners[index] = owners

    replay(deployment, trace, measure)
    return log


def _record_indices(trace: Trace) -> Dict[int, int]:
    """``id(record) -> index in trace.records``, valid while *trace* lives."""
    return {id(record): index for index, record in enumerate(trace.records)}


def evaluate_tasks(trace: Trace, log: ReplayLog, inter: float) -> AvailabilityResult:
    """Aggregate a replay log into task-level availability at one *inter*."""
    tasks = segment_tasks(trace, inter)
    index_of = _record_indices(trace)
    failed = [False] * len(tasks)
    blocks_per_task = [0] * len(tasks)
    file_sets: List[set] = [set() for _ in tasks]
    node_sets: List[set] = [set() for _ in tasks]
    for index, task in enumerate(tasks):
        for record in task.records:
            rid = index_of[id(record)]
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


def _mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
