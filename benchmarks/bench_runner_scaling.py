"""Runner scaling: performance-grid wall clock at jobs = 1, 2, 4.

Times the same 16-cell performance grid through :func:`performance_matrix`
at increasing worker counts, with the process memo cleared before each run
so every run recomputes all cells from scratch.  On a multi-core
machine the grid should speed up roughly linearly until the core count
binds (the cells are embarrassingly parallel); the paper-facing guarantee
— identical rows at every worker count — is asserted every run.
"""

import os
import time

import pytest

from benchmarks.conftest import run_once
from repro.experiments import common
from repro.experiments.performance import performance_matrix
from repro.runner import last_stats

# 16 cells, each a genuinely expensive simulation, so the pool's fork and
# pickle overheads are amortized the way real figure grids amortize them.
GRID = dict(
    systems=("d2", "traditional"),
    modes=("seq", "para"),
    node_sizes=(24, 36),
    bandwidths_kbps=(1500.0, 384.0),
    users=4,
    days=0.5,
    n_windows=1,
    seed=9,
)

JOBS_LEVELS = (1, 2, 4)

_WALL = {}       # jobs -> seconds, filled across the parametrized runs
_ROWS = {}       # jobs -> matrix, for the identical-rows assertion


def _fresh_run(jobs):
    common.clear_cache()
    started = time.perf_counter()
    matrix = performance_matrix(**GRID, jobs=jobs)
    _WALL[jobs] = time.perf_counter() - started
    _ROWS[jobs] = matrix
    return matrix


@pytest.mark.parametrize("jobs", JOBS_LEVELS)
def test_runner_scaling(benchmark, jobs):
    matrix = run_once(benchmark, lambda: _fresh_run(jobs))
    stats = last_stats("harvard")
    assert stats.jobs == jobs
    assert stats.cells_computed == 16  # nothing was served from the memo
    assert stats.cells_cached == 0
    assert len(matrix) == 16


def test_runner_scaling_summary():
    missing = [j for j in JOBS_LEVELS if j not in _WALL]
    assert not missing, f"scaling runs did not execute for jobs={missing}"

    print()
    print("runner scaling (16-cell performance grid)")
    print("jobs  wall_s  speedup_vs_serial")
    for jobs in JOBS_LEVELS:
        print(f"{jobs:4d}  {_WALL[jobs]:6.1f}  {_WALL[1] / _WALL[jobs]:17.2f}")

    # Identical rows whatever the worker count — the determinism contract.
    for jobs in JOBS_LEVELS[1:]:
        assert sorted(_ROWS[jobs]) == sorted(_ROWS[1])
        for key in _ROWS[1]:
            assert _ROWS[jobs][key] == _ROWS[1][key], (jobs, key)

    # The >=2x wall-clock target holds where there are cores to use; a
    # 1-2 core CI box cannot express it, so gate on the hardware.
    if (os.cpu_count() or 1) >= 4:
        assert _WALL[1] / _WALL[4] >= 2.0, (
            f"expected >=2x speedup at jobs=4, got {_WALL[1] / _WALL[4]:.2f}x"
        )
