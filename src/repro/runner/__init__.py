"""repro.runner — parallel experiment-matrix execution with a disk cache.

The paper derives every evaluation figure and table from a handful of run
matrices whose cells are embarrassingly parallel and fully deterministic.
This package executes those matrices cell by cell:

* :mod:`repro.runner.cells` — the deterministic cell functions (one per
  cell kind: ``harvard``, ``webcache-balance``, ``scale``, ``accel``),
  importable by worker processes;
* :mod:`repro.runner.cache` — a content-addressed on-disk result cache
  (``$REPRO_RUN_CACHE``) so cells survive across processes and bench runs;
* :mod:`repro.runner.executor` — :func:`run_cells`, which resolves each
  cell from the disk cache or computes it, serially or across a process
  pool (``--jobs N`` / ``$REPRO_JOBS``).

Serial and parallel execution produce identical rows; see
``docs/performance.md`` for knobs, cache layout, and bench recording.
"""

from repro.runner.cache import CACHE_ENV, SCHEMA_VERSION, RunCache, cache_key
from repro.runner.cells import CELL_KINDS, cell_kind, execute_cell
from repro.runner.executor import (
    JOBS_ENV,
    RunnerStats,
    last_stats,
    resolve_jobs,
    run_cells,
)

__all__ = [
    "CACHE_ENV",
    "CELL_KINDS",
    "JOBS_ENV",
    "RunCache",
    "RunnerStats",
    "SCHEMA_VERSION",
    "cache_key",
    "cell_kind",
    "execute_cell",
    "last_stats",
    "resolve_jobs",
    "run_cells",
]
