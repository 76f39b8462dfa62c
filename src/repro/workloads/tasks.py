"""Task and access-group segmentation (Sections 8.1 and 9.1).

The Harvard trace carries no explicit task boundaries, so the paper defines
them from timing:

* a **task** is a maximal same-user run of accesses with every gap below an
  inter-arrival threshold ``inter`` (1 s … 1 min in the evaluation), capped
  at 5 minutes — the availability unit: a task fails if *any* object it
  needs is unavailable;
* an **access group** is a same-user run with every gap below 1 second of
  *think time* — the latency unit: its completion time is what a user
  perceives, and its accesses are replayed either fully sequentially
  (``seq``) or fully in parallel (``para``), bracketing the real dependency
  structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.workloads.trace import READ, Trace, TraceRecord, WRITE

TASK_DURATION_CAP = 300.0  # 5 minutes, per Section 8.1
THINK_TIME = 1.0           # access-group boundary, per Section 9.1


@dataclass
class Task:
    """A correlated unit of user work; fails if any needed object does."""

    user: str
    records: List[TraceRecord]

    @property
    def start(self) -> float:
        return self.records[0].time


@dataclass
class AccessGroup:
    """A burst of accesses between two think times (the latency unit)."""

    user: str
    records: List[TraceRecord]

    @property
    def start(self) -> float:
        return self.records[0].time


def _segment(
    records: Sequence[TraceRecord],
    gap_threshold: float,
    duration_cap: float,
) -> List[List[TraceRecord]]:
    segments: List[List[TraceRecord]] = []
    current: List[TraceRecord] = []
    for record in records:
        if not current:
            current = [record]
            continue
        gap = record.time - current[-1].time
        over_cap = duration_cap > 0 and (record.time - current[0].time) > duration_cap
        if gap > gap_threshold or over_cap:
            segments.append(current)
            current = [record]
        else:
            current.append(record)
    if current:
        segments.append(current)
    return segments


def segment_tasks(trace: Trace, inter: float) -> List[Task]:
    """Split *trace* into per-user tasks at gaps larger than *inter*.

    As in the paper, only read and write records define and populate
    tasks; namespace operations ride along with whichever task encloses
    them during replay.
    """
    tasks: List[Task] = []
    for user, records in trace.per_user().items():
        accesses = [r for r in records if r.op in (READ, WRITE)]
        for segment in _segment(accesses, inter, TASK_DURATION_CAP):
            tasks.append(Task(user=user, records=segment))
    tasks.sort(key=lambda t: t.start)
    return tasks


def segment_access_groups(trace: Trace) -> List[AccessGroup]:
    """Split *trace*'s reads into access groups at think times (> 1 s gaps).

    The performance evaluation replays reads only (writes are absorbed by
    the 30 s write-back cache; Section 9.1 evaluates end-to-end read
    performance as CFS did).
    """
    groups: List[AccessGroup] = []
    for user, records in trace.per_user().items():
        reads = [r for r in records if r.op == READ]
        for segment in _segment(reads, THINK_TIME, 0.0):
            groups.append(AccessGroup(user=user, records=segment))
    groups.sort(key=lambda g: g.start)
    return groups
