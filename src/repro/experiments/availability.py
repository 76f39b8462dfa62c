"""The availability run matrix and its projections (Figures 7–8, Table 2)."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.availability import AvailabilityResult
from repro.experiments import common
from repro.sim.failures import FailureTraceConfig
from repro.workloads.trace import SECONDS_PER_DAY


def harsh_failure_config(days: float) -> FailureTraceConfig:
    """A deliberately failure-heavy period.

    Mirrors the paper's choice of a PlanetLab week "with a particularly
    large number of failures": short node MTTF, multi-hour repairs, and
    recurring correlated outages hitting ~22% of nodes.
    """
    return FailureTraceConfig(
        duration=days * SECONDS_PER_DAY,
        mttf=2.5 * SECONDS_PER_DAY,
        mttr=6 * 3600.0,
        correlated_events=max(2, int(2 * days)),
        correlated_fraction=0.22,
        correlated_repair=3 * 3600.0,
    )


def availability_matrix(
    *,
    systems: Sequence[str] = ("d2", "traditional", "traditional-file"),
    inters: Sequence[float] = common.INTERS,
    trials: int = common.TRIALS,
    n_nodes: int = common.AVAIL_NODES,
    users: int = common.TRACE_USERS,
    days: float = common.AVAIL_TRACE_DAYS,
    regeneration_delay: float = 2 * 3600.0,
    seed: int = common.SEED,
    jobs: Optional[int] = None,
) -> Dict[Tuple[str, float, int], AvailabilityResult]:
    """All (system, inter, trial) availability results (see :func:`common.run_grid`).

    Each trial re-seeds node IDs (as in the paper) and its failure trace,
    so rare correlated events are sampled broadly.  The expensive replay
    runs once per (system, trial) cell; the *inter* sweep reuses it inside
    the cell.
    """
    if len(inters) == 0:
        raise ValueError("grid axis 'inters' is empty")
    cells = common.grid_cells(
        {"trial": range(trials), "system": systems},
        users=users, days=days, n_nodes=n_nodes,
        regeneration_delay=regeneration_delay, inters=tuple(inters), seed=seed,
    )
    values = common.run_grid("availability", cells, jobs=jobs)
    return {
        (cell["system"], inter, cell["trial"]): result
        for cell, by_inter in zip(cells, values)
        for inter, result in by_inter.items()
    }


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def unavailability_rows(**grid) -> List[dict]:
    """Figure 7: task unavailability per (inter, system), over trials."""
    grouped: Dict[tuple, List[float]] = defaultdict(list)
    for (system, inter, _trial), result in availability_matrix(**grid).items():
        grouped[(inter, system)].append(result.unavailability)
    return [
        {
            "inter_s": inter,
            "system": system,
            "mean_unavailability": _mean(values),
            "min": min(values),
            "max": max(values),
            "zero_trials": sum(1 for v in values if v == 0.0),
            "trials": len(values),
        }
        for (inter, system), values in sorted(grouped.items())
    ]


def per_user_rows(inter: float = 5.0, **grid) -> List[dict]:
    """Figure 8: each user's unavailability averaged over trials, ranked."""
    grid.setdefault("inters", (inter,))
    if inter not in grid["inters"]:
        raise ValueError(
            f"the availability grid has no inter = {inter}; it holds {tuple(grid['inters'])}"
        )
    per_system: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for (system, i, _trial), result in availability_matrix(**grid).items():
        if i != inter:
            continue
        for user, value in result.per_user_unavailability().items():
            per_system[system][user].append(value)
    rows: List[dict] = []
    for system, users in sorted(per_system.items()):
        series = sorted((_mean(v) for v in users.values()), reverse=True)
        for rank, value in enumerate(series, start=1):
            if value > 0:
                rows.append({"system": system, "rank": rank, "unavailability": value})
        rows.append(
            {
                "system": system,
                "rank": "affected-users",
                "unavailability": sum(1 for v in series if v > 0),
            }
        )
    return rows


def task_stats_rows(**grid) -> List[dict]:
    """Table 2: mean objects and mean nodes accessed per task, by inter."""
    matrix = availability_matrix(**grid)
    systems = sorted({system for (system, _i, _t) in matrix})
    rows: List[dict] = []
    for inter in sorted({inter for (_s, inter, _t) in matrix}):
        row: Dict[str, object] = {"inter_s": inter}
        for system in systems:
            results = [r for (s, i, _t), r in matrix.items() if s == system and i == inter]
            row[f"nodes_{system}"] = _mean([r.mean_nodes_per_task for r in results])
            if system == "traditional":
                row["blocks_per_task"] = _mean([r.mean_blocks_per_task for r in results])
                row["files_per_task"] = _mean([r.mean_files_per_task for r in results])
        rows.append(row)
    return rows
