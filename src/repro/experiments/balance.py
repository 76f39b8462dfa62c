"""The load-balance run matrices and their projections (Figs 16–17, Tables 3–4).

Two grids, one per workload, each a cell per system.  Figures 16 and 17
are the same projection of the Harvard and of the Webcache grid; Tables
3 and 4 read the D2 cell of both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.balance import BalanceResult
from repro.analysis.plotting import ascii_timeseries, timeseries_from_samples
from repro.core.system import build_deployment
from repro.experiments import common
from repro.experiments.workload_cache import harvard_trace
from repro.sim.failures import ChurnStormConfig
from repro.workloads.trace import SECONDS_PER_DAY

def harvard_balance_matrix(
    *,
    systems: Sequence[str] = ("d2", "traditional", "traditional-file", "traditional+merc"),
    n_nodes: int = common.BALANCE_NODES,
    users: int = common.TRACE_USERS,
    days: float = common.BALANCE_TRACE_DAYS,
    seed: int = common.SEED,
    jobs: Optional[int] = None,
) -> Dict[str, BalanceResult]:
    """One Harvard balance replay per system (see :func:`common.run_grid`)."""
    cells = common.grid_cells(
        {"system": systems}, n_nodes=n_nodes, users=users, days=days, seed=seed
    )
    return dict(zip(systems, common.run_grid("harvard-balance", cells, jobs=jobs)))


def webcache_balance_matrix(
    *,
    systems: Sequence[str] = ("d2", "traditional"),
    n_nodes: int = common.BALANCE_NODES,
    days: float = common.BALANCE_TRACE_DAYS,
    seed: int = common.SEED,
    jobs: Optional[int] = None,
) -> Dict[str, BalanceResult]:
    """One Webcache balance replay per system (see :func:`common.run_grid`)."""
    cells = common.grid_cells({"system": systems}, n_nodes=n_nodes, days=days, seed=seed)
    return dict(zip(systems, common.run_grid("webcache-balance", cells, jobs=jobs)))


#: workload -> (figure number, grid, name of its ``$REPRO_METRICS_DIR`` report).
_IMBALANCE = {
    "Harvard": (16, harvard_balance_matrix, "fig16"),
    "Webcache": (17, webcache_balance_matrix, None),
}


def imbalance_rows(workload: str, **grid) -> List[dict]:
    """Figures 16 and 17: mean imbalance and balancing moves per system."""
    _, balance_matrix, report = _IMBALANCE[workload]
    matrix = balance_matrix(**grid)
    if report:
        labeled = [({"system": system}, result) for system, result in sorted(matrix.items())]
        common.emit_figure_metrics(report, labeled, grid)
    return [
        {
            "system": system,
            "mean_nsd": result.mean_nsd(),
            "mean_max_over_mean": result.mean_max_over_mean(),
            "moves": result.moves,
        }
        for system, result in matrix.items()
    ]


def plot_imbalance(workload: str, **grid) -> str:
    """ASCII rendering of the imbalance-over-time curves."""
    figure, balance_matrix, _ = _IMBALANCE[workload]
    series = {
        system: timeseries_from_samples(result.samples, lambda s: s.nsd)
        for system, result in balance_matrix(**grid).items()
    }
    return ascii_timeseries(
        series,
        x_label="days",
        y_label="nsd",
        title=f"Figure {figure}: load imbalance over time ({workload})",
    )


def _d2_results(grid: dict) -> Tuple[Tuple[str, BalanceResult], ...]:
    """The D2 cell of both grids, labelled by workload (Tables 3 and 4)."""
    web_grid = {k: v for k, v in grid.items() if k != "users"}
    return (
        ("Harvard", harvard_balance_matrix(systems=("d2",), **grid)["d2"]),
        ("Webcache", webcache_balance_matrix(systems=("d2",), **web_grid)["d2"]),
    )


def churn_ratio_rows(**grid) -> List[dict]:
    """Table 3: daily write and removal ratios (W_i/T_i, R_i/T_i)."""
    return [
        {
            "workload": name,
            "day": churn["day"],
            "W_over_T": churn["write_ratio"],
            "R_over_T": churn["remove_ratio"],
        }
        for name, result in _d2_results(grid)
        for churn in result.churn_rows()
    ]


def overhead_rows(**grid) -> List[dict]:
    """Table 4: write traffic vs load-balancing (migration) traffic per day."""
    rows: List[dict] = []
    for name, result in _d2_results(grid):
        for overhead in result.overhead_rows():
            rows.append(
                {
                    "workload": name,
                    "day": overhead["day"],
                    "W_mb_per_node": overhead["write_mb_per_node"],
                    "L_mb_per_node": overhead["migration_mb_per_node"],
                }
            )
        rows.append(
            {
                "workload": name,
                "day": "total L/W",
                "W_mb_per_node": sum(result.daily_written) / 1e6 / result.n_nodes,
                "L_mb_per_node": sum(result.daily_migrated) / 1e6 / result.n_nodes,
            }
        )
    return rows


def dynamic_churn_ratio_rows(
    *,
    users: int = 4,
    days: float = 2.0,
    n_nodes: int = 32,
    join_rate: float = 2.0,
    leave_rate: float = 1.0,
    crash_rate: float = 1.0,
    seed: int = common.SEED,
) -> List[dict]:
    """Table 3 on a *dynamic* ring: Harvard daily ratios plus repair cost.

    Replays the Harvard trace while a steady join/leave/crash storm runs
    through :class:`repro.dht.membership.MembershipService`, and buckets
    write / remove / repair bytes per day against the bytes present at
    that day's start.  One extra column per day the static table cannot
    have: ``Rep_over_T``, the repair + graceful-handoff traffic
    re-replication injected.  The W/R ratios should hold their paper shape
    under churn; repair traffic is the price of it.
    """
    trace = harvard_trace(users=users, days=days, seed=seed)
    deployment = build_deployment("d2", n_nodes, seed=seed)
    deployment.load_initial_image(trace)
    deployment.stabilize()
    deployment.store.ledger = type(deployment.store.ledger)()  # reset accounting
    membership = deployment.enable_dynamic_membership()
    membership.schedule_churn_storm(
        ChurnStormConfig(
            duration=days * SECONDS_PER_DAY,
            join_rate=join_rate,
            leave_rate=leave_rate,
            crash_rate=crash_rate,
        )
    )
    deployment.start_periodic_balancing()
    repair = deployment.repair

    n_days = max(1, int(round(days)))
    day_start_bytes: List[int] = []
    repair_bytes_at: List[int] = []
    churn_ops_at: List[int] = []

    def sample_day_start() -> None:
        day_start_bytes.append(deployment.store.directory.total_bytes)
        repair_bytes_at.append(
            repair.stats.repaired_bytes + repair.stats.handoff_bytes
        )
        churn_ops_at.append(
            int(
                deployment.metrics.counter("membership.joins").value
                + deployment.metrics.counter("membership.leaves").value
                + deployment.metrics.counter("membership.crashes").value
            )
        )

    sample_day_start()
    next_day = 1
    for record in trace.records:
        while next_day < n_days and record.time >= next_day * SECONDS_PER_DAY:
            deployment.advance_to(next_day * SECONDS_PER_DAY)
            sample_day_start()
            next_day += 1
        deployment.advance_to(record.time)
        deployment.replay_record(record)
    while next_day < n_days:
        deployment.advance_to(next_day * SECONDS_PER_DAY)
        sample_day_start()
        next_day += 1
    deployment.advance_to(days * SECONDS_PER_DAY)
    sample_day_start()  # end-of-run sample closes the last day's deltas

    rows: List[dict] = []
    series = deployment.store.ledger.daily_series(n_days)
    for day, entry in enumerate(series):
        present = day_start_bytes[day]
        repaired = repair_bytes_at[day + 1] - repair_bytes_at[day]
        rows.append(
            {
                "workload": "Harvard (dynamic)",
                "day": entry["day"],
                "W_over_T": entry["written"] / present if present else float("inf"),
                "R_over_T": entry["removed"] / present if present else float("inf"),
                "Rep_over_T": repaired / present if present else float("inf"),
                "churn_ops": churn_ops_at[day + 1] - churn_ops_at[day],
                "lost_keys": repair.stats.lost_keys,
            }
        )
    return rows
