"""Shared scaffolding for the per-figure/table experiment drivers.

Every driver follows the same contract:

* a ``run_*`` function takes scale knobs (defaulting to laptop-scale
  values recorded in EXPERIMENTS.md) and returns structured rows;
* a ``format_*`` function renders those rows as the table/series the paper
  prints, so benches can ``print()`` a directly comparable report.

Expensive underlying simulations are memoized per process (several figures
share one run matrix, exactly as the paper derives several figures from
one testbed execution).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.obs.report import build_report, write_report

_CACHE: "OrderedDict[Tuple, Any]" = OrderedDict()

#: Environment variable naming a directory for per-run metric snapshots.
#: When set (or when a driver is given an explicit ``metrics_dir``), the
#: fig9/fig13/fig16 drivers write one ``<name>.json`` report per invocation
#: so bench trajectories stay diffable across PRs.
METRICS_DIR_ENV = "REPRO_METRICS_DIR"

#: The process memo is FIFO-bounded: oldest entry evicted first.
MEMO_MAX = 32


def cached(key: Tuple, compute: Callable[[], Any]) -> Any:
    """Process-wide memoization for shared simulation runs.

    Bounded FIFO (:data:`MEMO_MAX` entries); evicted entries are simply
    recomputed on next use.  Cross-process persistence is the job of the
    disk cache in :mod:`repro.runner.cache`, not of this memo.
    """
    if key in _CACHE:
        return _CACHE[key]
    value = compute()
    _CACHE[key] = value
    while len(_CACHE) > MEMO_MAX:
        _CACHE.popitem(last=False)
    return value


def clear_cache() -> None:
    _CACHE.clear()


def metrics_out_dir(explicit: Optional[str] = None) -> Optional[str]:
    """Directory for metric snapshots: explicit arg, else $REPRO_METRICS_DIR."""
    return explicit if explicit is not None else os.environ.get(METRICS_DIR_ENV)


def emit_metrics_report(
    name: str,
    runs: Sequence[Mapping[str, Any]],
    params: Mapping[str, Any],
    directory: Optional[str],
) -> Optional[str]:
    """Write one schema-v1 metrics report; returns its path (None if disabled).

    *runs* pairs grid-cell labels with deployment observability snapshots:
    ``[{"labels": {...}, "counters": ..., "gauges": ..., "histograms": ...,
    "events": ...}, ...]``.
    """
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    report = build_report(name, runs, params=params)
    return write_report(report, os.path.join(directory, f"{name}.json"))


def labeled_run(labels: Mapping[str, Any], snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """One report run entry from a deployment observability snapshot."""
    entry: Dict[str, Any] = {"labels": dict(labels)}
    entry.update(snapshot)
    return entry


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
