"""The performance run matrix and its projections (Figures 9–15).

One run per (system, mode, size, bandwidth); the seven figures read
different projections of the same grid, as in the paper.  A projection
that finds no cell for what it reads raises ``ValueError`` naming the
missing (system, mode, n_nodes, bandwidth) instead of printing a row
with a hole in it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.performance import PerformanceResult, SpeedupReport, compare
from repro.analysis.plotting import ascii_scatter
from repro.experiments import common

PerfKey = Tuple[str, str, int, float]
_KEY = ("system", "mode", "n_nodes", "bandwidth_kbps")  # a PerfKey's fields

MODES = ("seq", "para")
#: The bandwidth Figures 9 and 12–15 are drawn at.
FAST_KBPS = 1500.0


def emit_performance_metrics(
    name: str,
    matrix: Dict[PerfKey, PerformanceResult],
    params: Mapping[str, object],
    metrics_dir: Optional[str] = None,
) -> Optional[str]:
    """One ``<name>.json`` report with a run entry per cell, labelled by its key."""
    labeled = [(dict(zip(_KEY, key)), result) for key, result in sorted(matrix.items())]
    return common.emit_figure_metrics(name, labeled, params, metrics_dir)


def performance_matrix(
    *,
    systems: Sequence[str] = ("d2", "traditional", "traditional-file"),
    modes: Sequence[str] = MODES,
    node_sizes: Sequence[int] = common.NODE_SIZES,
    bandwidths_kbps: Sequence[float] = common.BANDWIDTHS_KBPS,
    users: int = common.TRACE_USERS,
    days: float = common.TRACE_DAYS,
    n_windows: int = common.PERF_WINDOWS,
    scale_with_size: bool = True,
    seed: int = common.SEED,
    jobs: Optional[int] = None,
) -> Dict[PerfKey, PerformanceResult]:
    """All performance runs for the evaluation grid (see :func:`common.run_grid`).

    With ``scale_with_size`` the stored file system is replicated so
    per-node data stays constant across sizes (Section 9.1's methodology).
    """
    cells = common.grid_cells(
        {"n_nodes": node_sizes, "bandwidth_kbps": bandwidths_kbps,
         "system": systems, "mode": modes},
        users=users, days=days, n_windows=n_windows,
        scale_with_size=scale_with_size, seed=seed,
    )
    base_size = min(node_sizes)
    for cell in cells:
        cell["base_size"] = base_size
    values = common.run_grid("performance", cells, jobs=jobs)
    return {tuple(cell[field] for field in _KEY): value for cell, value in zip(cells, values)}


def _cell(matrix: Dict[PerfKey, PerformanceResult], *key) -> PerformanceResult:
    if key not in matrix:
        raise ValueError(
            f"the performance grid has no cell {_KEY} = {key}; it holds {sorted(matrix)}"
        )
    return matrix[key]


def _versus(matrix, baseline: str, mode: str, n_nodes: int, bandwidth: float) -> SpeedupReport:
    return compare(
        _cell(matrix, baseline, mode, n_nodes, bandwidth),
        _cell(matrix, "d2", mode, n_nodes, bandwidth),
    )


def _largest(matrix) -> int:
    return max(key[2] for key in matrix)


def per_size_rows(
    figure: str, column: str, attribute: str, *,
    metrics_dir: Optional[str] = None, **grid,
) -> List[dict]:
    """Figures 9 and 13: one result attribute per system, by mode and size."""
    matrix = performance_matrix(**grid)
    systems = sorted({key[0] for key in matrix})
    rows: List[dict] = []
    for mode in MODES:
        for n_nodes in sorted({key[2] for key in matrix}):
            row = {"mode": mode, "n_nodes": n_nodes}
            for system in systems:
                result = _cell(matrix, system, mode, n_nodes, FAST_KBPS)
                row[f"{column}_{system}"] = getattr(result, attribute)
            rows.append(row)
    emit_performance_metrics(figure, matrix, grid, metrics_dir)
    return rows


def speedup_rows(baseline: str = "traditional", **grid) -> List[dict]:
    """Figures 10 and 11: mean speedup of D2 over *baseline*, every cell."""
    matrix = performance_matrix(**grid)
    rows: List[dict] = []
    for bandwidth in sorted({key[3] for key in matrix}, reverse=True):
        for mode in MODES:
            for n_nodes in sorted({key[2] for key in matrix}):
                report = _versus(matrix, baseline, mode, n_nodes, bandwidth)
                rows.append(
                    {
                        "bandwidth_kbps": bandwidth,
                        "mode": mode,
                        "n_nodes": n_nodes,
                        "speedup": report.overall,
                        "users_above_1": report.fraction_above_one,
                    }
                )
    return rows


def per_user_speedup_rows(baseline: str = "traditional", **grid) -> List[dict]:
    """Figure 12: per-user mean speedup, ranked, largest size at 1500 kbps."""
    matrix = performance_matrix(**grid)
    n_nodes = _largest(matrix)
    rows: List[dict] = []
    for mode in MODES:
        report = _versus(matrix, baseline, mode, n_nodes, FAST_KBPS)
        for rank, (user, speedup) in enumerate(
            sorted(report.per_user.items(), key=lambda kv: kv[1], reverse=True), start=1
        ):
            rows.append(
                {"mode": mode, "rank": rank, "user": user, "speedup": speedup,
                 "n_nodes": n_nodes}
            )
    return rows


def latency_scatter_rows(baseline: str = "traditional", n_nodes: Optional[int] = None,
                         **grid) -> List[dict]:
    """Figures 14 and 15: access-group latency pairs, summarized per mode."""
    matrix = performance_matrix(**grid)
    if n_nodes is None:
        n_nodes = _largest(matrix)
    rows: List[dict] = []
    for mode in MODES:
        report = _versus(matrix, baseline, mode, n_nodes, FAST_KBPS)
        above = sum(1 for b, f in report.pairs if f < b)
        slow_pairs = [(b, f) for b, f in report.pairs if max(b, f) > 5.0]
        slow_d2_wins = sum(1 for b, f in slow_pairs if f <= b)
        rows.append(
            {
                "mode": mode,
                "n_nodes": n_nodes,
                "groups": len(report.pairs),
                "faster_in_d2": above,
                "fraction_above_diagonal": above / len(report.pairs) if report.pairs else 0.0,
                "slow_groups": len(slow_pairs),
                "slow_groups_d2_wins": slow_d2_wins,
            }
        )
    return rows


def scatter_points(baseline: str = "traditional", mode: str = "seq",
                   n_nodes: Optional[int] = None, **grid) -> List[dict]:
    """Raw (baseline, d2) latency pairs for plotting the scatter itself."""
    matrix = performance_matrix(**grid)
    if n_nodes is None:
        n_nodes = _largest(matrix)
    report = _versus(matrix, baseline, mode, n_nodes, FAST_KBPS)
    return [
        {"baseline_s": b, "d2_s": f} for b, f in sorted(report.pairs, reverse=True)
    ]


def plot_latency_scatter(mode: str = "seq", **grid) -> str:
    """ASCII scatter with the diagonal, as the paper draws Figure 14."""
    points = scatter_points(mode=mode, **grid)
    return ascii_scatter(
        [(p["baseline_s"], p["d2_s"]) for p in points],
        title=f"Figure 14 ({mode}): access-group latency, traditional vs D2",
    )
