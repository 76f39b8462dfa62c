"""Churn-storm matrix: sustained join/leave/kill × correlated outages.

The paper's Table 3 churn is daily-rate; production DHTs live with
continuous membership change.  This matrix replays the Harvard workload
against a *dynamic* ring while a churn storm runs — graceful leaves hand
arcs off through pointers, crashes destroy disks, and the bandwidth-capped
repair scheduler races the next failure — and reports the three numbers
that matter for durability:

* **pointer-stabilization time** — how long adopted arcs wait for their
  bytes (mean / p95 of the ``pointer.stabilization_seconds`` histogram);
* **repair backlog** — in-flight re-replication jobs (peak and end-state);
* **data-loss probability** — blocks whose whole replica group died inside
  one repair window, over all blocks tracked.

Every cell runs under sim-time health monitoring
(:mod:`repro.obs.health`): the replica-deficit and backlog SLO rules
turn the storm from a pass/fail total into an alert timeline — fire
during the storm, resolve after the drain — attached to each row as the
``health`` payload (written to ``runner_churn.health<k>.jsonl`` by the
runner, rendered by ``python -m repro.obs health``).

Every cell is a deterministic function of its parameter bundle and runs
through :mod:`repro.runner`, so rows are bit-identical serial vs
``--jobs N`` and cache cleanly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments import common
from repro.workloads.trace import SECONDS_PER_DAY

#: (join, leave, crash) arrivals per hour for the named storm levels.
STORM_LEVELS: Dict[str, Dict[str, float]] = {
    "calm": {"join_rate": 0.5, "leave_rate": 0.25, "crash_rate": 0.25},
    "steady": {"join_rate": 2.0, "leave_rate": 1.0, "crash_rate": 1.0},
    "storm": {"join_rate": 6.0, "leave_rate": 3.0, "crash_rate": 4.0},
}

DRAIN_SECONDS = 4 * 3600.0


def run_churn_cell(params: Dict[str, object]) -> Dict[str, object]:
    """One (storm level, correlated, trial) churn run; returns a flat row.

    Deterministic: the workload trace, node IDs, storm schedule, outage
    trace, and every repair decision derive from the cell's parameters.
    """
    import random

    from repro.core.system import build_deployment
    from repro.experiments.workload_cache import harvard_trace
    from repro.sim.failures import ChurnStormConfig, FailureTrace, FailureTraceConfig

    users = int(params["users"])
    days = float(params["days"])
    n_nodes = int(params["n_nodes"])
    seed = int(params["seed"])
    trial = int(params["trial"])
    duration = days * SECONDS_PER_DAY

    trace = harvard_trace(users=users, days=days, seed=seed)
    deployment = build_deployment("d2", n_nodes, seed=seed + 17 * trial)
    deployment.load_initial_image(trace)
    deployment.stabilize()
    membership = deployment.enable_dynamic_membership()
    monitor = deployment.enable_health_monitoring(
        window=float(params.get("health_window", 900.0))
    )

    storm = ChurnStormConfig(
        duration=duration,
        join_rate=float(params["join_rate"]),
        leave_rate=float(params["leave_rate"]),
        crash_rate=float(params["crash_rate"]),
    )
    membership.schedule_churn_storm(storm)

    correlated_events = int(params["correlated_events"])
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
    for record in trace.records:
        deployment.advance_to(record.time)
        deployment.replay_record(record)
    deployment.advance_to(duration)

    repair = deployment.repair
    backlog_end = repair.backlog()
    # Quiesce: stop the storm-free tail and let queued repairs drain so
    # convergence ("r live copies after any join/leave/crash sequence") is
    # measurable rather than assumed.
    deployment.stop_periodic_balancing()
    deployment.advance_to(duration + float(params.get("drain_seconds", DRAIN_SECONDS)))

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
        "level": params["level"],
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


def run_churn_storm(
    *,
    levels: Sequence[str] = ("calm", "steady", "storm"),
    correlated: Sequence[int] = (0, 3),
    trials: int = 1,
    users: int = 4,
    days: float = 0.5,
    n_nodes: int = 48,
    seed: int = common.SEED,
    jobs: Optional[int] = None,
) -> List[dict]:
    """The full churn-storm matrix as flat rows, one per cell."""
    cells = common.grid_cells(
        {"level": levels, "correlated_events": correlated, "trial": range(trials)},
        users=users, days=days, n_nodes=n_nodes, seed=seed,
    )
    for cell in cells:
        cell.update(STORM_LEVELS[cell["level"]])
    return common.run_grid("churn", cells, jobs=jobs)
