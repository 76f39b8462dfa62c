"""Shared scaffolding for the figure registry (:mod:`repro.experiments.figures`).

Every registry entry follows the same contract: a *rows function* takes
scale knobs (defaulting to the laptop-scale values below, recorded in
EXPERIMENTS.md) and returns structured rows, and the entry's column list
renders them through :func:`format_table` as the table/series the paper
prints.

Expensive underlying simulations run as grids of cells through
:func:`run_grid` and are memoized per process (several figures share one
run matrix, exactly as the paper derives several figures from one
testbed execution).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.report import emit_metrics_report, labeled_run, metrics_out_dir
from repro.runner import emit_stats_report, last_stats, run_cells
from repro.runner.cells import report_name

_CACHE: "OrderedDict[Tuple, Any]" = OrderedDict()

#: The process memo is FIFO-bounded: oldest entry evicted first.  It
#: holds one entry per grid cell and per trace, and ``python -m repro
#: all`` asks for 58 distinct cells.
MEMO_MAX = 128


def cached(key: Tuple, compute: Callable[[], Any]) -> Any:
    """Process-wide memoization for shared simulation runs.

    Bounded FIFO (:data:`MEMO_MAX` entries); evicted entries are simply
    recomputed on next use.  Nothing persists across processes.
    """
    if key in _CACHE:
        return _CACHE[key]
    value = compute()
    _remember(key, value)
    return value


def _remember(key: Tuple, value: Any) -> None:
    _CACHE[key] = value
    while len(_CACHE) > MEMO_MAX:
        _CACHE.popitem(last=False)


def clear_cache() -> None:
    _CACHE.clear()


def grid_cells(axes: Mapping[str, Sequence[Any]], **fixed: Any) -> List[Dict[str, Any]]:
    """One parameter bundle per point of the product of *axes*.

    The first axis varies slowest, so cell order is the nesting order the
    axes are written in; *fixed* values are copied into every bundle.  An
    empty axis is refused here, before anything reaches the runner.
    """
    for name, values in axes.items():
        if len(values) == 0:
            raise ValueError(f"grid axis {name!r} is empty")
    return [
        dict(zip(axes, point), **fixed)
        for point in itertools.product(*axes.values())
    ]


def run_grid(
    kind: str, cells: Sequence[Dict[str, Any]], *, jobs: Optional[int] = None
) -> List[Any]:
    """The results of *cells*, in cell order, each computed once per process.

    The memo holds each cell under ``(kind, sorted bundle)``, so two
    figures whose grids share cells (Table 3's ``d2`` cell and Figure 16's
    grid, Figures 7 and 8) run each shared cell once whatever keyword
    spelling got them there.  The cells it lacks go to
    :func:`repro.runner.run_cells`, in ``jobs`` worker processes (default
    ``$REPRO_JOBS`` / serial); ``jobs`` never changes a result — only how
    fast it arrives — and is deliberately not part of the key.  Every call
    reaches the runner, so ``last_stats(kind)`` and the runner report
    describe this grid, memo hits counted as cached.

    The key holds no environment variable: a caller that changes
    ``$REPRO_TRACE_SAMPLE`` between grids calls :func:`clear_cache`.
    """
    keys = [(kind, tuple(sorted(cell.items()))) for cell in cells]
    by_key = {key: _CACHE[key] for key in keys if key in _CACHE}
    missing = {key: cell for key, cell in zip(keys, cells) if key not in by_key}
    by_key.update(zip(missing, run_cells(kind, list(missing.values()), jobs=jobs)))
    for key in missing:
        _remember(key, by_key[key])
    results = [by_key[key] for key in keys]
    stats = last_stats(kind)
    assert stats is not None  # run_cells has just recorded it
    stats.cells_total, stats.cells_cached = len(cells), len(cells) - len(missing)
    emit_stats_report(stats, report_name(kind, cells[0]), None, results)
    return results


def emit_figure_metrics(
    name: str,
    labeled_results: Iterable[Tuple[Mapping[str, Any], Any]],
    params: Mapping[str, Any],
    metrics_dir: Optional[str] = None,
) -> Optional[str]:
    """Write one ``<name>.json`` metrics report for a figure's grid.

    One run entry per ``(labels, result)`` pair whose result carries an
    observability snapshot; a no-op unless *metrics_dir* or
    ``$REPRO_METRICS_DIR`` names a destination.
    """
    runs = [
        labeled_run(labels, result.metrics)
        for labels, result in labeled_results
        if result.metrics is not None
    ]
    return emit_metrics_report(name, runs, params, metrics_out_dir(metrics_dir))


def format_table(rows: Sequence[dict], columns: Sequence[str], *, title: str = "") -> str:
    """Minimal fixed-width table renderer for bench reports."""
    if not rows:
        return f"{title}\n(no rows)"
    widths = {
        col: max(len(col), max(len(_fmt(row.get(col))) for row in rows))
        for col in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.01 or abs(value) >= 100000:
            return f"{value:.2e}"
        return f"{value:.3g}" if abs(value) < 10 else f"{value:.1f}"
    return str(value)


# ----------------------------------------------------------------------
# Default laptop-scale parameters (the paper-scale values in comments).

TRACE_USERS = 8          # paper: 83 active users
TRACE_DAYS = 1.0         # paper: 7 days (perf) / 7 days (availability)
BALANCE_TRACE_DAYS = 4.0  # paper: 6+ days
AVAIL_TRACE_DAYS = 2.0
NODE_SIZES = (60, 120, 240)   # paper: 200, 500, 1000 virtual nodes
AVAIL_NODES = 80               # paper: 247 PlanetLab nodes
BALANCE_NODES = 48
BANDWIDTHS_KBPS = (1500.0, 384.0)
INTERS = (1.0, 5.0, 15.0, 60.0)  # paper: 1 s, 5 s, 15 s, 1 min
TRIALS = 3                      # paper: 5 trials
PERF_WINDOWS = 3                # paper: 8 fifteen-minute windows
SEED = 11
