"""Churn-storm matrix: sustained join/leave/kill × correlated outages.

The paper's Table 3 churn is daily-rate; production DHTs live with
continuous membership change.  This matrix replays the Harvard workload
against a *dynamic* ring while a churn storm runs
(:func:`repro.analysis.churn.run_churn`): one row per (storm level,
correlated outages, trial), each with its health payload (written to
``runner_churn.health<k>.jsonl`` by the runner, rendered by ``python -m
repro.obs health``).

Every cell is a deterministic function of its parameter bundle and runs
through :mod:`repro.runner`, so rows are bit-identical serial vs
``--jobs N``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.churn import run_churn
from repro.experiments import common
from repro.experiments.workload_cache import harvard_trace

#: (join, leave, crash) arrivals per hour for the named storm levels.
STORM_LEVELS: Dict[str, Dict[str, float]] = {
    "calm": {"join_rate": 0.5, "leave_rate": 0.25, "crash_rate": 0.25},
    "steady": {"join_rate": 2.0, "leave_rate": 1.0, "crash_rate": 1.0},
    "storm": {"join_rate": 6.0, "leave_rate": 3.0, "crash_rate": 4.0},
}


def churn_cell(*, users: int, days: float, seed: int, **storm: Any) -> Dict[str, object]:
    """One (storm level, correlated, trial) cell: *storm* is the rest of
    :func:`repro.analysis.churn.run_churn`'s keywords."""
    trace = harvard_trace(users=users, days=days, seed=seed)
    return run_churn(trace, days=days, seed=seed, **storm)


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
        measure="churn", users=users, days=days, n_nodes=n_nodes, seed=seed,
    )
    for cell in cells:
        cell.update(STORM_LEVELS[cell["level"]])
    return common.run_grid("harvard", cells, jobs=jobs)
