"""Observability spine: metrics registry, event counts, spans, health, reports.

Usage sketch::

    from repro.obs.events import LOOKUP_HIT, EventTracer
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    tracer = EventTracer()
    registry.counter("lookup.hits").inc()
    tracer.emit(LOOKUP_HIT)

    from repro.obs.report import build_report, snapshot_run, write_report
    report = build_report("demo", [snapshot_run({"system": "d2"}, registry, tracer)])
    write_report(report, "demo.json")

``python -m repro.obs summary demo.json`` pretty-prints a report;
``python -m repro.obs validate demo.json`` checks it against the schema;
``python -m repro.obs trace spans.jsonl`` analyzes a span-trace export;
``python -m repro.obs health health.jsonl`` renders a health-export
alert timeline and per-node drill-down.  See ``docs/observability.md``
for the metric-name, event, span, and time-series catalogs.
"""
