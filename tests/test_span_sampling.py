"""Exports are independent of the span sample rate.

A :class:`~repro.obs.spans.Tracer` counts every root at every rate and
keeps span objects only for the roots its ordinal head sample picks.  So
a small accel cell, churn cell and performance cell, run at rates 1/2,
1/16 and 0, must give what they give at rate 1: the same rows, the same
:meth:`Deployment.observability_snapshot` (counters, gauges, histograms,
events) for every deployment built, and, as the span export, exactly the
rate-1 trace trees of the kept root ordinals (compared by name, parent
name, start, end and attributes; ids are numbered per kept trace).

A child recorded as a root of its own under a dropped parent, or a root
the sample does not count, shows here as a snapshot or tree mismatch.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from functools import partial

import pytest

from repro.obs.spans import DEFAULT_SAMPLE, SAMPLE_ENV, Tracer

#: Modules holding their own binding of ``build_deployment``.
_BINDINGS = ("repro.core.system", "repro.analysis.harness", "repro.analysis.accel")


def _accel_cell():
    from repro.runner import cells

    result = cells.accel_cell(dict(
        mode="all", scenario="churn", n_nodes=24, clients=4, pre_ops=400, post_ops=600,
        seed=5, n_dirs=16, static_capacity=4,
    ))
    return result.deterministic_row()


def _churn_cell():
    from repro.experiments.churn_storm import STORM_LEVELS
    from repro.runner import cells

    return cells.churn_cell(dict(
        STORM_LEVELS["storm"], level="storm", correlated_events=2, users=1, days=0.25,
        n_nodes=16, drain_seconds=7200.0, trial=8, seed=11,
    ))


def _performance_cell():
    from repro.experiments.performance import performance_cell

    result = performance_cell(
        users=2, days=0.5, seed=7, n_nodes=12, base_size=12, scale_with_size=False,
        system="d2", mode="para", bandwidth_kbps=1500.0, n_windows=4,
    )
    return dataclasses.replace(result, trace=None, metrics=None)


CELLS = {"accel": _accel_cell, "churn": _churn_cell, "performance": _performance_cell}


def _trees(spans):
    """The trace trees of exported *spans*, in root order: per trace, each
    span as ``(name, parent name, start, end, attrs)`` in creation order."""
    names = {span["span_id"]: span["name"] for span in spans}
    trees = {}
    for span in spans:
        parent = span["parent_id"]
        trees.setdefault(span["trace_id"], []).append((
            span["name"], None if parent is None else names[parent],
            span["start"], span["end"], span["attrs"],
        ))
    return list(trees.values())


def _run(cell, rate, monkeypatch):
    """*cell*'s row and, per deployment built, its snapshot, span trees and
    root count, with spans sampled at *rate* into an unbounded buffer."""
    monkeypatch.setenv(SAMPLE_ENV, repr(rate))
    system = importlib.import_module(_BINDINGS[0])
    original, built = system.build_deployment, []

    def build_deployment(*args, **kwargs):
        deployment = original(*args, **kwargs)
        built.append(deployment)
        return deployment

    with monkeypatch.context() as patch:
        patch.setattr(system, "SpanTracer", partial(Tracer, 1 << 20))
        for name in _BINDINGS:
            patch.setattr(importlib.import_module(name), "build_deployment", build_deployment)
        row = CELLS[cell]()
    deployments = [
        (deployment.observability_snapshot(), _trees(deployment.spans.to_dicts()),
         deployment.spans.roots_started)
        for deployment in built
    ]
    return row, deployments


@pytest.fixture(scope="module")
def full_rate():
    """Each cell at rate 1, run once for the module."""
    runs = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for cell in CELLS:
            runs[cell] = _run(cell, 1.0, monkeypatch)
    return runs


@pytest.mark.parametrize("rate", (0.5, DEFAULT_SAMPLE, 0.0))
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_exports_do_not_depend_on_the_rate(cell, rate, full_rate, monkeypatch):
    expected_row, expected = full_rate[cell]
    row, deployments = _run(cell, rate, monkeypatch)
    assert row == expected_row
    assert len(deployments) == len(expected) >= 1
    for (snapshot, trees, roots), (full_snapshot, full_trees, full_roots) in zip(
            deployments, expected):
        assert len(full_trees) == full_roots  # at rate 1 every root is kept
        assert snapshot == full_snapshot
        assert roots == full_roots
        kept = [n for n in range(1, roots + 1)
                if math.ceil(n * rate) > math.ceil((n - 1) * rate)]
        assert trees == [full_trees[n - 1] for n in kept]
