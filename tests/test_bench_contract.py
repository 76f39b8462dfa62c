"""What the frozen benchmark (``benchmarks/e2e``) needs of the program.

The driver patches the program's layers by name (``seams.SEAMS``) and its
worker reads a handful of attributes off the deployments the cells build.
``benchmarks/e2e/tests`` checks all of that end to end in ~80 s, outside
tier-1; this is the 1 s version, so that a rename in ``src/`` fails here
first.
"""

import ast
import importlib
import types
from pathlib import Path

from benchmarks.e2e import seams
from benchmarks.e2e.workloads import WORKLOADS
from repro.core.system import build_deployment

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def test_every_seam_and_first_op_resolves():
    seams.check_seams()
    for workload in WORKLOADS.values():
        seams.resolve(*workload.first_op)


def test_deployment_has_what_the_worker_reads(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
    deployment = build_deployment("d2", 8, seed=1)
    deployment.bootstrap_volume()
    deployment.apply_fs_ops(deployment.fs.create("/f", size=20_000))

    assert isinstance(deployment.tracer.emitted, int) and deployment.tracer.emitted >= 8
    spans = deployment.spans
    assert spans, "tracing defaults to on: worker.py keeps only truthy tracers"
    assert spans.started == spans.finished >= 1 and len(spans) >= 1
    assert spans.started - len(spans) == 0  # worker.py's own dropped count
    assert isinstance(spans.drain(), list) and isinstance(spans.to_dicts(), list)
    assert deployment.metrics.get("store.writes").value >= 1
    assert deployment.metrics.get("no.such.metric") is None

    assert deployment.repair is None and deployment.health is None
    deployment.enable_dynamic_membership()
    for name in ("scheduled", "completed", "retries", "requeued", "abandoned",
                 "repaired_bytes"):
        assert isinstance(getattr(deployment.repair.stats, name), int)
    monitor = deployment.enable_health_monitoring(window=60.0)
    assert deployment.health is monitor
    assert isinstance(monitor.summary()["samples"], int)


def imported_names(source):
    """``(module, name, attribute or None)`` for every ``from repro... import``
    in *source*, function bodies included, plus each ``alias.attribute`` read
    where the imported name is itself a module (``cells.churn_cell``)."""
    tree = ast.parse(source)
    bound = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, alias.name)
                found.append((node.module, alias.name, None))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            found.append((*bound[node.value.id], node.attr))
    return sorted(set(found), key=str)


def test_every_name_the_benchmark_imports_resolves():
    """The names ``workloads.py`` and ``worker.py`` import inside their
    function bodies, and the worker's preloaded modules, are only looked up
    when a round runs; resolve them all here."""
    names = []
    for name in ("workloads.py", "worker.py"):
        names += imported_names((E2E / name).read_text())
    assert ("repro.runner", "cells", "churn_cell") in names
    for module, name, attribute in names:
        target = getattr(importlib.import_module(module), name, None)
        if target is None:  # a submodule not imported by its package
            target = importlib.import_module(f"{module}.{name}")
        if attribute is not None:
            assert isinstance(target, types.ModuleType), (module, name)
            assert hasattr(target, attribute), f"{module}.{name}.{attribute}"
    tree = ast.parse((E2E / "worker.py").read_text())
    (preload,) = [
        node.value for node in tree.body if isinstance(node, ast.Assign)
        and [target.id for target in node.targets] == ["_PRELOAD"]
    ]
    for module in ast.literal_eval(preload):
        importlib.import_module(module)
