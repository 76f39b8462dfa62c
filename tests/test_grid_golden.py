"""Golden: the cells ``python -m repro <name>`` asks the runner for, at full size.

Nothing is simulated.  The disk-cache probe is replaced by a recorder
that always misses — :func:`repro.runner.run_cells` probes every cell of
a grid before it computes any — and the first cell execution aborts the
run.  What is left is the figure's default-size grid as the ordered list
of ``(kind, cache_key(kind, cell))``: a changed parameter bundle, a
reordered axis or a renamed kind fails here by figure name, and an equal
list means a run cache written by another commit serves this one.

Only the first grid a figure requests is seen; Tables 3 and 4 go on to
the Webcache ``d2`` cell, which is the first cell of Figure 17's grid.

The file uses ``python -m repro``'s ``main`` and the runner's own seams
and nothing else, so it runs unchanged on the commit that recorded
``tests/data/grid_cells.json`` (the parent of the figure-registry PR)::

    PYTHONPATH=src python tests/test_grid_golden.py > tests/data/grid_cells.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.experiments.common import clear_cache
from repro.runner import JOBS_ENV, RunCache, cache_key
from repro.runner.cache import AMBIENT_ENV_KEYS

GOLDEN = Path(__file__).parent / "data" / "grid_cells.json"

#: Every ``python -m repro`` name that runs a grid of cells.
GRID_FIGURES = (
    "fig7", "fig8", "table2", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "table3", "churn", "fig16", "fig17", "table4",
    "scale", "accel",
)


class _GridRecorded(Exception):
    """Raised in place of the first cell execution."""


def requested_cells(name, monkeypatch):
    """``{"kinds", "count", "sha256"}`` of the first grid *name* requests."""
    seen = []

    def probe(self, kind, params):
        seen.append((kind, cache_key(kind, params)))
        return False, None

    def abort(kind, params):
        raise _GridRecorded(kind)

    monkeypatch.setattr(RunCache, "get", probe)
    monkeypatch.setattr("repro.runner.executor.execute_cell", abort)
    for variable in (JOBS_ENV, *AMBIENT_ENV_KEYS):
        monkeypatch.delenv(variable, raising=False)
    clear_cache()
    with pytest.raises(_GridRecorded):
        main([name])
    lines = [f"{kind} {key}" for kind, key in seen]
    return {
        "kinds": sorted({kind for kind, _ in seen}),
        "count": len(lines),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


@pytest.mark.parametrize("name", GRID_FIGURES)
def test_default_grid_golden(name, monkeypatch):
    assert requested_cells(name, monkeypatch) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    recorded = {}
    for figure in GRID_FIGURES:
        with pytest.MonkeyPatch.context() as patch:
            recorded[figure] = requested_cells(figure, patch)
    json.dump(recorded, sys.stdout, indent=1, sort_keys=True)
    print()
