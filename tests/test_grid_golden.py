"""Golden: the cells ``python -m repro <name>`` asks the runner for, at full size.

Nothing is simulated.  ``run_cells``, as the experiment modules import it
(:mod:`repro.experiments.common` for the memoised grids,
:mod:`repro.experiments.scale_matrix` for the self-timing ``scale`` and
``accel`` ones), is replaced by a recorder that aborts the run on its
first call.  What is left is the figure's default-size grid as the
ordered list of ``(kind, sorted parameter bundle)``: a changed bundle, a
reordered axis, a renamed kind or a memo key that merges two cells fails
here by figure name.

Only the first grid a figure requests is seen; Tables 3 and 4 go on to
the Webcache ``d2`` cell, which is the first cell of Figure 17's grid.

The file uses ``python -m repro``'s ``main`` and those two module names
and nothing else, so it runs unchanged on the commit that recorded
``tests/data/grid_cells.json``.  It was recorded, with this formula, on
the last commit that had the on-disk run cache; the three records before
it hashed that cache's keys::

    PYTHONPATH=src python tests/test_grid_golden.py > tests/data/grid_cells.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.experiments.common import clear_cache

GOLDEN = Path(__file__).parent / "data" / "grid_cells.json"

#: Every ``python -m repro`` name that runs a grid of cells.
GRID_FIGURES = (
    "fig7", "fig8", "table2", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "table3", "churn", "fig16", "fig17", "table4",
    "scale", "accel",
)


class _GridRecorded(Exception):
    """Raised in place of the first grid's execution."""


def requested_cells(name, monkeypatch):
    """``{"kinds", "count", "sha256"}`` of the first grid *name* requests."""
    seen = []

    def record(kind, cells, **options):
        seen.extend((kind, tuple(sorted(cell.items()))) for cell in cells)
        raise _GridRecorded(kind)

    for module in ("repro.experiments.common", "repro.experiments.scale_matrix"):
        monkeypatch.setattr(f"{module}.run_cells", record)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    clear_cache()
    with pytest.raises(_GridRecorded):
        main([name])
    lines = [f"{kind} {bundle!r}" for kind, bundle in seen]
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
