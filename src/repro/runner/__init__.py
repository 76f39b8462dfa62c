"""repro.runner — parallel experiment-matrix execution.

The paper derives every evaluation figure and table from a handful of run
matrices whose cells are embarrassingly parallel and fully deterministic.
This package executes those matrices cell by cell:

* :mod:`repro.runner.cells` — the deterministic cell functions (one per
  cell kind: ``harvard``, ``webcache-balance``, ``scale``, ``accel``),
  importable by worker processes;
* :mod:`repro.runner.executor` — :func:`run_cells`, which computes the
  cells serially or across a process pool (``--jobs N`` /
  ``$REPRO_JOBS``) and records what it did.

A cell is computed once per process: :func:`repro.experiments.common.run_grid`
keeps a memo in front of :func:`run_cells`.  Nothing is kept across
processes.  Serial and parallel execution produce identical rows; see
``docs/performance.md``.
"""

from repro.runner.cells import CELL_KINDS, cell_kind, execute_cell
from repro.runner.executor import (
    JOBS_ENV,
    JobsError,
    RunnerStats,
    emit_stats_report,
    last_stats,
    resolve_jobs,
    run_cells,
)

__all__ = [
    "CELL_KINDS",
    "JOBS_ENV",
    "JobsError",
    "RunnerStats",
    "cell_kind",
    "emit_stats_report",
    "execute_cell",
    "last_stats",
    "resolve_jobs",
    "run_cells",
]
