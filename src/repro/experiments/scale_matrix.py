"""The scale matrix: ``python -m repro scale`` and ``BENCH_scale.json``.

Runs the million-user scale cells (:mod:`repro.analysis.scale`) over a
node-count × user-multiplier grid and appends one labelled run to the
``BENCH_scale.json`` trajectory file, so engine throughput and peak RSS
are tracked PR-over-PR the way the figure rows track accuracy.

Unlike the figure matrices these cells *time themselves*, so they always
run fresh: the disk result-cache is explicitly disabled (a cached
wall-clock number would report the machine state of some earlier run).
The deterministic work fingerprints (op counts, hop totals, owner
checksums) are still byte-identical between serial and ``--jobs N``
runs — CI's ``scale-smoke`` job asserts exactly that.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — trajectory file path (default
  ``BENCH_scale.json`` in the current directory).
* ``REPRO_SCALE_LABEL`` — label recorded for this run (default
  ``local``).
* ``REPRO_SCALE_EXPORT_DIR`` — when set, read cells stream per-window
  metrics rows and finished spans to JSONL files under this directory.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.scale import ScaleCellResult
from repro.experiments import common
from repro.runner import RunCache, run_cells

BENCH_ENV = "REPRO_BENCH_SCALE"
LABEL_ENV = "REPRO_SCALE_LABEL"
DEFAULT_BENCH_PATH = "BENCH_scale.json"
BENCH_SCHEMA = 1

#: Per-run-entry schema version, explicit on every entry (the committed
#: pr7/pr8 runs are v1); v2 read cells carry ``streamed_health`` (the
#: health-export row count added with the sim-time health monitor).
RUN_SCHEMA = 2


def scale_cells(
    *,
    routing_nodes: Sequence[int] = (1000, 10000),
    routing_ops: int = 20000,
    routing_batch: int = 4096,
    routing_cold_ops: int = 2000,
    read_cells: Sequence[Tuple[int, int]] = ((1000, 100000),),
    read_base_size: int = 250,
    read_ops_per_user: int = 10,
    read_window: int = 8192,
    system: str = "d2",
    users: int = common.TRACE_USERS,
    days: float = 0.25,
    seed: int = common.SEED,
) -> List[Dict[str, Any]]:
    """The parameter bundles of one scale run (all plain picklable dicts).

    Default grid: routing throughput at 10^3 and 10^4 nodes, plus one
    10^5-user read replay on a 10^3-node deployment (image replicated
    from a 250-node base, per Section 9.1).
    """
    cells: List[Dict[str, Any]] = []
    for n_nodes in routing_nodes:
        cells.append(
            {
                "cell": "routing",
                "n_nodes": n_nodes,
                "ops": routing_ops,
                "batch": routing_batch,
                "cold_ops": routing_cold_ops,
                "seed": seed,
            }
        )
    for n_nodes, target_users in read_cells:
        cells.append(
            {
                "cell": "read",
                "system": system,
                "n_nodes": n_nodes,
                "users": target_users,
                "ops_per_user": read_ops_per_user,
                "window": read_window,
                "base_users": users,
                "days": days,
                "base_size": read_base_size,
                "seed": seed,
            }
        )
    return cells


def run_fresh(kind: str, cells: Sequence[Dict[str, Any]], jobs: Optional[int]) -> List[Any]:
    """Run self-timing cells: never from the disk cache, never memoized."""
    return run_cells(
        kind, list(cells), jobs=jobs, cache=RunCache(None), metrics_name=f"runner_{kind}"
    )


def run_scale(
    *, cells: Optional[Sequence[Dict[str, Any]]] = None, jobs: Optional[int] = None
) -> List[ScaleCellResult]:
    """Run the scale matrix, always fresh (disk cache disabled)."""
    return run_fresh("scale", scale_cells() if cells is None else cells, jobs)


def scale_rows(**grid: Any) -> List[Dict[str, Any]]:
    """Run the scale matrix, append it to the trajectory, return its rows."""
    results = run_scale(cells=scale_cells(**grid))
    record_trajectory(results)
    rows = []
    for result in results:
        row = result.row()
        row["rss_growth_kb"] = result.rss_growth_kb
        del row["rss_curve_kb"]
        rows.append(row)
    return rows


def recorded_note(**_grid: Any) -> str:
    """The line ``python -m repro scale`` / ``accel`` print under their table."""
    return f"recorded run -> {bench_path()}"


def bench_path(explicit: Optional[str] = None) -> str:
    if explicit:
        return explicit
    return os.environ.get(BENCH_ENV, "").strip() or DEFAULT_BENCH_PATH


def validate_run(run: Any, index: int) -> List[str]:
    """Structural problems with one run entry."""
    problems: List[str] = []
    where = f"runs[{index}]"
    if not isinstance(run, dict):
        return [f"{where}: not an object"]
    schema = run.get("schema")
    if not isinstance(schema, int) or not 1 <= schema <= RUN_SCHEMA:
        problems.append(
            f"{where}: schema {schema!r} not an int in [1, {RUN_SCHEMA}]"
        )
    if not isinstance(run.get("label"), str) or not run["label"]:
        problems.append(f"{where}: missing/empty label")
    cells = run.get("cells")
    if not isinstance(cells, list) or not cells:
        problems.append(f"{where}: cells must be a non-empty list")
    else:
        for j, cell in enumerate(cells):
            if not isinstance(cell, dict) or "cell" not in cell:
                problems.append(f"{where}.cells[{j}]: not a cell row")
    return problems


def load_trajectory(path: str) -> Dict[str, Any]:
    """Load and validate a ``BENCH_scale.json`` document.

    A document that fails validation (an unversioned run entry included)
    raises ``ValueError`` naming every problem, so a corrupt trajectory
    is an error rather than a silent reset.
    """
    with open(path, "r", encoding="utf-8") as handle:
        loaded = json.load(handle)
    if not isinstance(loaded, dict) or loaded.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: document schema {loaded.get('schema')!r} "
            f"!= {BENCH_SCHEMA}" if isinstance(loaded, dict)
            else f"{path}: not a JSON object"
        )
    runs = loaded.get("runs")
    if not isinstance(runs, list):
        raise ValueError(f"{path}: runs must be a list")
    problems: List[str] = []
    for index, run in enumerate(runs):
        problems.extend(validate_run(run, index))
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return loaded


def record_trajectory(
    results: Sequence[ScaleCellResult],
    *,
    path: Optional[str] = None,
    label: Optional[str] = None,
) -> str:
    """Append one labelled run to the ``BENCH_scale.json`` trajectory.

    The file holds every recorded run in order, so a sequence of PRs
    leaves a throughput/memory curve rather than a single overwritten
    number.  Existing entries are validated before the new run —
    stamped :data:`RUN_SCHEMA` — is appended.  Returns the path written.
    """
    target = bench_path(path)
    label = label or os.environ.get(LABEL_ENV, "").strip() or "local"
    document: Dict[str, Any] = {"schema": BENCH_SCHEMA, "runs": []}
    if os.path.exists(target):
        document = load_trajectory(target)
    document["runs"].append(
        {
            "label": label,
            "schema": RUN_SCHEMA,
            "cells": [result.row() for result in results],
        }
    )
    with open(target, "w", encoding="utf-8") as handle:
        # The $REPRO_SCALE_LABEL-derived run label is provenance metadata
        # (who recorded this run), never an input to any comparison.
        # lint: allow=DET004
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target
