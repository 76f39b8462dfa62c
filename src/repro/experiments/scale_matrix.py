"""The scale matrix: ``python -m repro scale`` and ``BENCH_scale.json``.

Runs the million-user scale cells (:mod:`repro.analysis.scale`) over a
node-count × user-multiplier grid and appends one labelled run to the
``BENCH_scale.json`` trajectory file, so engine throughput and peak RSS
are tracked PR-over-PR the way the figure rows track accuracy.

Unlike the figure matrices these cells *time themselves*, so they always
run fresh: they bypass the process memo of :func:`common.run_grid` (a
memoised wall-clock number would report the machine state of an earlier
run).
The deterministic work fingerprints (op counts, hop totals, owner
checksums) are still byte-identical between serial and ``--jobs N``
runs — CI's ``matrix-smoke`` job asserts exactly that.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — trajectory file path (default
  ``BENCH_scale.json`` in the current directory).
* ``REPRO_SCALE_LABEL`` — label recorded for this run (default
  ``local``).
* ``REPRO_SCALE_EXPORT_DIR`` — when set, read cells stream per-window
  metrics rows and finished spans to JSONL files under this directory.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.harness import harvard_deployment
from repro.analysis.scale import ScaleCellResult, run_scale_read, run_scale_routing
from repro.experiments import common
from repro.obs.stream import JsonlWriter
from repro.runner import run_cells
from repro.runner.cells import scaled_harvard_trace
from repro.workloads.scale import copies_for_size

BENCH_ENV = "REPRO_BENCH_SCALE"
LABEL_ENV = "REPRO_SCALE_LABEL"
DEFAULT_BENCH_PATH = "BENCH_scale.json"
BENCH_SCHEMA = 1

#: Per-run-entry schema version, explicit on every entry (the committed
#: pr7/pr8 runs are v1); v2 read cells carry ``streamed_health`` (the
#: health-export row count added with the sim-time health monitor); v3
#: routing cells carry no ``cold_*``/``speedup_vs_cold`` fields.
RUN_SCHEMA = 3


def scale_cells(
    *,
    routing_nodes: Sequence[int] = (1000, 10000),
    routing_ops: int = 20000,
    routing_batch: int = 4096,
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


def scale_cell(cell: str, **params: Any) -> ScaleCellResult:
    """One scale cell: ``"routing"`` (bare ring, batched lookup throughput)
    or ``"read"`` (full deployment, cloned read stream through the batched
    read path)."""
    if cell == "routing":
        return run_scale_routing(**params)
    return _scale_read_cell(**params)


def _scale_read_cell(
    *, system: str, n_nodes: int, users: int, ops_per_user: int, window: int,
    base_users: int, days: float, base_size: int, seed: int,
) -> ScaleCellResult:
    trace = scaled_harvard_trace(
        users=base_users, days=days, seed=seed, base_size=base_size,
        n_nodes=n_nodes, scale_with_size=True,
    )
    deployment = harvard_deployment(trace, system, n_nodes, seed=seed, stabilize=False)
    # Sim-time health series at the replay cadence (one window per sim
    # second); node-level series are off — 10^3+ per-node series would
    # swamp the export without changing the cluster-level story.
    deployment.enable_health_monitoring(window=1.0, node_level=False)
    # Knob: where the cell's JSONL streams go, not what they hold.
    export_dir = os.environ.get("REPRO_SCALE_EXPORT_DIR", "").strip()  # lint: allow=DET004
    with contextlib.ExitStack() as stack:

        def writer(stream: str) -> Optional[JsonlWriter]:
            if not export_dir:
                return None
            name = f"scale_read_{n_nodes}x{users}_{stream}.jsonl"
            return stack.enter_context(JsonlWriter(os.path.join(export_dir, name)))

        return run_scale_read(
            deployment, trace, copies=copies_for_size(base_size, n_nodes),
            users=users, ops_per_user=ops_per_user, window=window, seed=seed,
            span_writer=writer("spans"), metrics_writer=writer("metrics"),
            health_writer=writer("health"),
        )


def run_fresh(kind: str, cells: Sequence[Dict[str, Any]], jobs: Optional[int]) -> List[Any]:
    """Run self-timing cells: never memoized."""
    return run_cells(kind, list(cells), jobs=jobs, metrics_name=f"runner_{kind}")


def run_scale(
    *, cells: Optional[Sequence[Dict[str, Any]]] = None, jobs: Optional[int] = None
) -> List[ScaleCellResult]:
    """Run the scale matrix, always fresh (never memoised)."""
    return run_fresh("scale", scale_cells() if cells is None else cells, jobs)


def scale_rows(**grid: Any) -> List[Dict[str, Any]]:
    """Run the scale matrix, append it to the trajectory, return its rows."""
    results = run_scale(cells=scale_cells(**grid))
    record_trajectory([result.row() for result in results])
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
    # Knob: which trajectory file a run appends to.
    return os.environ.get(BENCH_ENV, "").strip() or DEFAULT_BENCH_PATH  # lint: allow=DET004


class TrajectoryError(ValueError):
    """A trajectory file that is truncated, hand-edited or of another schema."""


def validate_run(run: Any, index: int) -> List[str]:
    """Structural problems with one run entry; a cell's call ledger (counts
    by package, ``total``) must add up."""
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
            elif "calls" in cell:
                counts = list(cell["calls"].values()) if isinstance(cell["calls"], dict) else [-1]
                if not all(type(n) is int and n >= 0 for n in counts) or (
                        cell.get("total") != sum(counts)):
                    problems.append(f"{where}.cells[{j}]: calls do not add up to total")
    return problems


def load_trajectory(path: str) -> Dict[str, Any]:
    """Load and validate a trajectory document (``BENCH_scale.json``,
    ``BENCH_calls.json``).

    A document that is not JSON or fails validation (an unversioned run
    entry included) raises :class:`TrajectoryError` naming every problem,
    so a corrupt trajectory is an error rather than a silent reset.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            loaded = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TrajectoryError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(loaded, dict) or loaded.get("schema") != BENCH_SCHEMA:
        raise TrajectoryError(
            f"{path}: document schema {loaded.get('schema')!r} "
            f"!= {BENCH_SCHEMA}" if isinstance(loaded, dict)
            else f"{path}: not a JSON object"
        )
    runs = loaded.get("runs")
    if not isinstance(runs, list):
        raise TrajectoryError(f"{path}: runs must be a list")
    problems: List[str] = []
    for index, run in enumerate(runs):
        problems.extend(validate_run(run, index))
    if problems:
        raise TrajectoryError(f"{path}: " + "; ".join(problems))
    return loaded


def record_trajectory(
    rows: Sequence[Dict[str, Any]],
    *,
    path: Optional[str] = None,
    label: Optional[str] = None,
) -> str:
    """Append one labelled run of cell *rows* to a trajectory file
    (default: the ``BENCH_scale.json`` of :func:`bench_path`).

    The file holds every recorded run in order, so a sequence of PRs
    leaves a throughput/memory curve rather than a single overwritten
    number.  Existing entries and the new run — stamped
    :data:`RUN_SCHEMA` — are validated before anything is written.
    Returns the path written.
    """
    target = bench_path(path)
    # Knob: the run label is provenance metadata (who recorded this run),
    # never an input to any comparison.
    label = label or os.environ.get(LABEL_ENV, "").strip() or "local"  # lint: allow=DET004
    document: Dict[str, Any] = {"schema": BENCH_SCHEMA, "runs": []}
    if os.path.exists(target):
        document = load_trajectory(target)
    run = {"label": label, "schema": RUN_SCHEMA, "cells": list(rows)}
    problems = validate_run(run, len(document["runs"]))
    if problems:
        raise TrajectoryError(f"{target}: " + "; ".join(problems))
    document["runs"].append(run)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target
