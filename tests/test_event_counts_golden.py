"""Golden: the event counts and counters of a churn cell and an accel cell.

The goldens of ``tests/data`` pin the span and health exports, the rows
and the ``lookup.*`` counts; none holds the ``membership.*``,
``repair.*``, ``health.*`` or ``dht.learned.*`` counts.  Here each cell's
deployments are captured as they are built (as the benchmark worker's
rig captures them) and their :meth:`Deployment.observability_snapshot`
is read: its ``events`` and ``counters`` sections must equal
``tests/data/event_counts.json`` exactly.

The file was recorded with the event counts still emitted at each call
site, one ``EventTracer.emit`` per event beside its counter bump; the
counts now read from those counters must reproduce it byte for byte.
To re-record (only for a deliberate change of what a cell does)::

    PYTHONPATH=src python -m tests.test_event_counts_golden > tests/data/event_counts.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "event_counts.json"

#: The churn cell: a storm with two correlated outages that loses keys.
CHURN_CELL = dict(
    level="storm", correlated_events=2, users=1, days=0.25, n_nodes=16,
    drain_seconds=7200.0, trial=8, seed=11,
)

#: The accel cell: every tier under churn (membership, repair, learned index).
ACCEL_CELL = dict(
    mode="all", scenario="churn", n_nodes=24, clients=4, pre_ops=400, post_ops=600,
    seed=5, n_dirs=16, static_capacity=4,
)

#: Modules holding their own binding of ``build_deployment``.
_BINDINGS = ("repro.core.system", "repro.analysis.harness", "repro.analysis.accel")


def event_counts(patch):
    """``{cell: [{"events", "counters"} per deployment built]}`` for the two cells.

    *patch* sets an attribute for the duration of the run (pytest's
    ``monkeypatch.setattr``, or plain ``setattr`` from the command line).
    """
    import importlib

    from repro.experiments.churn_storm import STORM_LEVELS
    from repro.runner import cells

    built = []
    original = importlib.import_module(_BINDINGS[0]).build_deployment

    def build_deployment(*args, **kwargs):
        deployment = original(*args, **kwargs)
        built.append(deployment)
        return deployment

    for name in _BINDINGS:
        patch(importlib.import_module(name), "build_deployment", build_deployment)
    runs = {
        "churn": lambda: cells.churn_cell({**STORM_LEVELS[CHURN_CELL["level"]], **CHURN_CELL}),
        "accel": lambda: cells.accel_cell(ACCEL_CELL),
    }
    golden = {}
    for cell, run in runs.items():
        del built[:]
        run()
        golden[cell] = []
        for deployment in built:
            snapshot = deployment.observability_snapshot()
            golden[cell].append({"events": snapshot["events"],
                                 "counters": snapshot["counters"]})
    return golden


def test_event_counts_golden(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
    got = event_counts(monkeypatch.setattr)
    assert got == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import os

    os.environ.pop("REPRO_TRACE_SAMPLE", None)
    json.dump(event_counts(setattr), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
