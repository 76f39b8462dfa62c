"""What the frozen benchmark (``benchmarks/e2e``) needs of the program.

The driver patches the program's layers by name (``seams.SEAMS``) and its
worker reads a handful of attributes off the deployments the cells build.
``benchmarks/e2e/tests`` checks all of that end to end in ~80 s, outside
tier-1; this is the 1 s version, so that a rename in ``src/`` fails here
first.
"""

from benchmarks.e2e import seams
from benchmarks.e2e.workloads import WORKLOADS
from repro.core.system import build_deployment


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
