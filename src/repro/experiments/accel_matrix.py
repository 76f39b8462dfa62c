"""The acceleration matrix: ``python -m repro accel``.

Sweeps lookup-acceleration modes (:data:`repro.core.accel.ACCEL_MODES`)
against workload-shift scenarios (:data:`repro.workloads.shift.SCENARIOS`)
over identical deployments and request streams, printing the per-phase
hit-ratio recovery table and appending one labelled run to the
``BENCH_scale.json`` trajectory (same file, env knobs, and schema as the
scale matrix — a row's ``cell`` field tells the two apart).

Like the scale cells, accel cells time themselves, so the disk result
cache is disabled; the deterministic fingerprint of every row is still
byte-identical between serial and ``--jobs N`` runs (CI's ``accel-smoke``
job asserts it).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.accel import AccelCellResult
from repro.core.accel import ACCEL_MODES
from repro.experiments import common
from repro.experiments.scale_matrix import record_trajectory, run_fresh
from repro.workloads.shift import SCENARIOS


def accel_cells(
    *,
    modes: Sequence[str] = ACCEL_MODES,
    scenarios: Sequence[str] = SCENARIOS,
    n_nodes: int = 64,
    clients: int = 12,
    pre_ops: int = 3000,
    post_ops: int = 5000,
    static_capacity: int = 12,
    seed: int = common.SEED,
) -> List[Dict[str, Any]]:
    """The parameter bundles of one accel run (plain picklable dicts);
    by default every mode under every shift shape."""
    return common.grid_cells(
        {"scenario": scenarios, "mode": modes},
        n_nodes=n_nodes, clients=clients, pre_ops=pre_ops, post_ops=post_ops,
        static_capacity=static_capacity, seed=seed,
    )


def run_accel(
    *, cells: Optional[Sequence[Dict[str, Any]]] = None, jobs: Optional[int] = None
) -> List[AccelCellResult]:
    """Run the accel matrix, always fresh (disk cache disabled)."""
    return run_fresh("accel", accel_cells() if cells is None else cells, jobs)


def accel_rows(**grid: Any) -> List[Dict[str, Any]]:
    """Run the accel matrix, append it to the trajectory, return its rows."""
    results = run_accel(cells=accel_cells(**grid))
    record_trajectory(results)
    return [result.row() for result in results]
