"""The load-balance run matrices and their projections (Figs 16–17, Tables 3–4).

Two grids, one per workload, each a cell per system.  Figures 16 and 17
are the same projection of the Harvard and of the Webcache grid; Tables
3 and 4 read the D2 cell of both.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.balance import (
    BalanceResult, run_dynamic_churn_ratios, run_harvard_balance, run_webcache_balance,
)
from repro.analysis.plotting import ascii_timeseries, timeseries_from_samples
from repro.experiments import common
from repro.experiments.workload_cache import harvard_trace, web_trace

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
        {"system": systems}, measure="harvard-balance",
        n_nodes=n_nodes, users=users, days=days, seed=seed,
    )
    return dict(zip(systems, common.run_grid("harvard", cells, jobs=jobs)))


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


def harvard_balance_cell(*, users: int, days: float, seed: int, **run: Any) -> BalanceResult:
    """One system of the Harvard balance comparison."""
    return run_harvard_balance(harvard_trace(users=users, days=days, seed=seed), seed=seed, **run)


def webcache_balance_cell(*, days: float, seed: int, **run: Any) -> BalanceResult:
    """One system of the Webcache balance comparison."""
    return run_webcache_balance(web_trace(days=days, seed=seed), seed=seed, **run)


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
    jobs: Optional[int] = None,
) -> List[dict]:
    """Table 3 on a *dynamic* ring, one ``harvard`` cell: the Harvard
    daily ratios under live churn plus the repair traffic they cost
    (:func:`repro.analysis.balance.run_dynamic_churn_ratios`)."""
    cell = dict(
        measure="dynamic-churn", users=users, days=days, n_nodes=n_nodes,
        join_rate=join_rate, leave_rate=leave_rate, crash_rate=crash_rate, seed=seed,
    )
    (rows,) = common.run_grid("harvard", [cell], jobs=jobs)
    return rows


def dynamic_churn_cell(*, users: int, days: float, seed: int, **storm: Any) -> List[dict]:
    """The one cell of :func:`dynamic_churn_ratio_rows`: *storm* is the
    rest of :func:`repro.analysis.balance.run_dynamic_churn_ratios`'s keywords."""
    trace = harvard_trace(users=users, days=days, seed=seed)
    return run_dynamic_churn_ratios(trace, days=days, seed=seed, **storm)
