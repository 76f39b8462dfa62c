"""Synthetic node-failure traces (PlanetLab-like, Section 8.1).

The paper replays the observed up/down behaviour of 247 PlanetLab nodes
during Feb 22–28 2003 — a week chosen for its unusually *many and
correlated* failures, because correlated failures are what actually hurts
replica groups.  That trace is not available offline, so we generate
session-based availability traces with the same two ingredients:

* **independent churn** — each node alternates exponentially-distributed
  up-times (MTTF) and down-times (MTTR);
* **correlated outage events** — at random instants a random subset of
  nodes fails simultaneously for a shared repair period (infrastructure
  outages, the availability killer the paper highlights).

Defaults are calibrated so that over a simulated week the probability that
all 3 nodes of a replica group are simultaneously down at least once is on
the order of the paper's 0.02 (see ``tests/test_failures.py``).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

SECONDS_PER_DAY = 86400.0
WEEK = 7 * SECONDS_PER_DAY


@dataclass(frozen=True)
class FailureEvent:
    """One transition: node goes down (``up=False``) or comes back up."""

    time: float
    node: str
    up: bool


@dataclass(frozen=True)
class FailureTraceConfig:
    """Knobs of the synthetic availability trace."""

    duration: float = WEEK
    mttf: float = 4.0 * SECONDS_PER_DAY        # mean time between failures
    mttr: float = 4.0 * 3600.0                 # mean repair time: 4 hours
    correlated_events: int = 3                 # infrastructure outages/week
    correlated_fraction: float = 0.08          # nodes hit per outage
    correlated_repair: float = 2.0 * 3600.0    # shared outage duration


class FailureTrace:
    """A complete, replayable up/down schedule for a set of nodes."""

    def __init__(self, nodes: Sequence[str], events: List[FailureEvent], duration: float) -> None:
        self.nodes = list(nodes)
        self.events = sorted(events, key=lambda e: (e.time, e.node))
        self.duration = duration
        self._timeline: Dict[str, List[Tuple[float, bool]]] = {n: [(0.0, True)] for n in nodes}
        for event in self.events:
            self._timeline[event.node].append((event.time, event.up))

    @classmethod
    def generate(
        cls,
        nodes: Sequence[str],
        rng: random.Random,
        config: FailureTraceConfig = FailureTraceConfig(),
    ) -> "FailureTrace":
        """Generate a trace for *nodes* under *config*.

        All nodes start up.  Independent churn and correlated outages are
        merged; a node already down when an outage hits simply stays down
        until the later of its repair times.
        """
        intervals: Dict[str, List[Tuple[float, float]]] = {n: [] for n in nodes}

        # Independent per-node sessions.
        for node in nodes:
            t = rng.expovariate(1.0 / config.mttf)
            while t < config.duration:
                repair = rng.expovariate(1.0 / config.mttr)
                intervals[node].append((t, t + repair))
                t = t + repair + rng.expovariate(1.0 / config.mttf)

        # Correlated outages.
        for _ in range(config.correlated_events):
            when = rng.uniform(0, config.duration)
            count = max(1, int(len(nodes) * config.correlated_fraction))
            victims = rng.sample(list(nodes), min(count, len(nodes)))
            repair = rng.expovariate(1.0 / config.correlated_repair)
            for node in victims:
                intervals[node].append((when, when + repair))

        return cls(nodes, events_from_intervals(intervals, config.duration), config.duration)

    # ------------------------------------------------------------------
    # queries

    def is_up(self, node: str, time: float) -> bool:
        """Node state at *time* (boundaries: an event applies at its time)."""
        timeline = self._timeline[node]
        index = bisect.bisect_right(timeline, (time, True)) - 1
        return timeline[max(index, 0)][1]

    def up_set(self, time: float) -> Set[str]:
        return {node for node in self.nodes if self.is_up(node, time)}

    def down_since(self, node: str, time: float) -> Optional[float]:
        """Start of the down period containing *time*, or None if up."""
        timeline = self._timeline[node]
        index = bisect.bisect_right(timeline, (time, True)) - 1
        index = max(index, 0)
        when, state = timeline[index]
        if state:
            return None
        return when

    def availability(self, node: str) -> float:
        """Fraction of the trace during which *node* was up."""
        timeline = self._timeline[node]
        up_time = 0.0
        for (t0, state), (t1, _) in zip(timeline, timeline[1:]):
            if state:
                up_time += t1 - t0
        last_t, last_state = timeline[-1]
        if last_state:
            up_time += self.duration - last_t
        return up_time / self.duration if self.duration > 0 else 1.0

    def mean_availability(self) -> float:
        return sum(self.availability(n) for n in self.nodes) / len(self.nodes)


@dataclass(frozen=True)
class ChurnStormConfig:
    """Sustained membership churn: Poisson join/leave/kill arrivals.

    Rates are events per hour across the whole system (production DHTs see
    continuous arrivals, not the daily-rate churn of Table 3).  A
    :class:`FailureTraceConfig`-style correlated outage can be layered on
    top by the churn harness; this config covers only the independent
    streams.
    """

    duration: float = SECONDS_PER_DAY
    join_rate: float = 2.0    # joins per hour
    leave_rate: float = 1.0   # graceful leaves per hour
    crash_rate: float = 1.0   # abrupt kills per hour


@dataclass(frozen=True)
class ChurnOp:
    """One scheduled membership operation (victim chosen at fire time)."""

    time: float
    op: str  # "join" | "leave" | "crash"


def generate_churn_ops(
    config: ChurnStormConfig, rng: random.Random
) -> List[ChurnOp]:
    """Merged, time-sorted Poisson streams of join/leave/crash operations.

    Each stream is generated independently with exponential inter-arrival
    times, then merged; ties break by op name so the schedule is a pure
    function of (config, rng seed).
    """
    ops: List[ChurnOp] = []
    for op, rate_per_hour in (
        ("join", config.join_rate),
        ("leave", config.leave_rate),
        ("crash", config.crash_rate),
    ):
        if rate_per_hour <= 0:
            continue
        mean_gap = 3600.0 / rate_per_hour
        t = rng.expovariate(1.0 / mean_gap)
        while t < config.duration:
            ops.append(ChurnOp(time=t, op=op))
            t += rng.expovariate(1.0 / mean_gap)
    ops.sort(key=lambda o: (o.time, o.op))
    return ops


def events_from_intervals(
    intervals: Dict[str, List[Tuple[float, float]]], duration: float
) -> List[FailureEvent]:
    """Turn per-node down intervals into clean alternating transitions.

    Overlapping intervals (a node already down when a correlated outage
    hits) merge: the node stays down until the later repair.  Repairs past
    the trace end are dropped (the node is down at the end).
    """
    events: List[FailureEvent] = []
    for node, spans in intervals.items():
        merged: List[Tuple[float, float]] = []
        for lo, hi in sorted(spans):
            if lo >= duration:
                continue
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        for lo, hi in merged:
            events.append(FailureEvent(lo, node, up=False))
            if hi < duration:
                events.append(FailureEvent(hi, node, up=True))
    return events
