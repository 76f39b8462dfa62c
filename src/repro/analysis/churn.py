"""Durability under a churn storm: one Harvard replay on a dynamic ring.

Graceful leaves hand arcs off through pointers, crashes destroy disks,
and the bandwidth-capped repair scheduler races the next failure, while
a correlated outage trace optionally crashes a fifth of the founding
nodes at once.  A run reports the three numbers that matter for
durability:

* **pointer-stabilization time** — how long adopted arcs wait for their
  bytes (mean / p95 of the ``pointer.stabilization_seconds`` histogram);
* **repair backlog** — in-flight re-replication jobs (peak and end-state);
* **data-loss probability** — blocks whose whole replica group died inside
  one repair window, over all blocks tracked.

Every run is under sim-time health monitoring (:mod:`repro.obs.health`):
the replica-deficit and backlog SLO rules turn the storm from a
pass/fail total into an alert timeline — fire during the storm, resolve
after the drain — attached to the row as its ``health`` payload.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.analysis.harness import harvard_deployment, replay
from repro.sim.failures import ChurnStormConfig, FailureTrace, FailureTraceConfig
from repro.workloads.trace import SECONDS_PER_DAY, Trace

#: Quiet time after the storm in which queued repairs drain.
DRAIN_SECONDS = 4 * 3600.0


def run_churn(
    trace: Trace, *, level: str, correlated_events: int, trial: int, days: float,
    n_nodes: int, seed: int, join_rate: float, leave_rate: float, crash_rate: float,
    drain_seconds: float = DRAIN_SECONDS,
) -> Dict[str, object]:
    """One (storm level, correlated, trial) churn run of *trace*; a flat row.

    Deterministic: node IDs, storm schedule, outage trace, and every
    repair decision derive from the parameters.
    """
    duration = days * SECONDS_PER_DAY
    deployment = harvard_deployment(trace, "d2", n_nodes, seed=seed + 17 * trial)
    membership = deployment.enable_dynamic_membership()
    monitor = deployment.enable_health_monitoring()  # 15-minute windows
    membership.schedule_churn_storm(ChurnStormConfig(
        duration=duration, join_rate=join_rate, leave_rate=leave_rate,
        crash_rate=crash_rate,
    ))
    if correlated_events > 0:
        # Outage-only trace: effectively-infinite MTTF leaves just the
        # correlated events, each crashing ~20% of the founding nodes.
        outage_config = FailureTraceConfig(
            duration=duration,
            mttf=1e15,
            mttr=3600.0,
            correlated_events=correlated_events,
            correlated_fraction=0.2,
            correlated_repair=1800.0,
        )
        outages = FailureTrace.generate(
            list(deployment.ring.names()),
            random.Random(seed + 31 * trial + 1),
            outage_config,
        )
        membership.schedule_failure_trace(outages)

    deployment.start_periodic_balancing()
    replay(deployment, trace)
    deployment.advance_to(duration)

    repair = deployment.repair
    backlog_end = repair.backlog()
    # Quiesce: stop the storm-free tail and let queued repairs drain so
    # convergence ("r live copies after any join/leave/crash sequence") is
    # measurable rather than assumed.
    deployment.stop_periodic_balancing()
    deployment.advance_to(duration + drain_seconds)

    tracker = repair.tracker
    replicas = deployment.config.replica_count
    want = min(replicas, len(deployment.ring))
    tracked = tracker.tracked_keys()
    full = sum(1 for key in tracked if tracker.live_count(key) >= want)
    lost = repair.stats.lost_keys
    population = lost + len(deployment.store.directory)

    health_rows = monitor.finish()
    health_summary = monitor.summary()
    stabilization = deployment.metrics.histogram("pointer.stabilization_seconds")
    row: Dict[str, object] = {
        "level": level,
        "correlated": correlated_events,
        "trial": trial,
        "joins": deployment.metrics.counter("membership.joins").value,
        "leaves": deployment.metrics.counter("membership.leaves").value,
        "crashes": deployment.metrics.counter("membership.crashes").value,
        "refused": deployment.metrics.counter("membership.refused").value,
        "nodes_end": len(deployment.ring),
        "stab_mean_s": round(stabilization.mean, 3),
        "stab_p95_s": round(stabilization.percentile(95.0), 3),
        "stabilized": stabilization.count,
        "backlog_peak": repair.stats.max_backlog,
        "backlog_end": backlog_end,
        "backlog_drained": repair.backlog(),
        "loss_prob": round(lost / population, 6) if population else 0.0,
        "fully_replicated": round(full / len(tracked), 6) if tracked else 1.0,
        "events_fired": deployment.metrics.counter("sim.events_fired").value,
        "alerts_fired": health_summary["alerts_fired"],
        "alerts_resolved": health_summary["alerts_resolved"],
        "alerts_active": health_summary["alerts_active"],
        # Full per-window health export: series + alert rows plus the
        # roll-up, attached for the runner's health-file writer and the
        # ``python -m repro.obs health`` CLI.
        "health": {
            "window": monitor.window,
            "summary": health_summary,
            "rows": health_rows,
        },
    }
    row.update(repair.stats.to_row())
    return row
