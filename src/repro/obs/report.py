"""JSON metrics reports: build, validate, summarize, round-trip.

A *report* is the unit experiment drivers emit per invocation: one JSON
document holding one *run entry* per simulated deployment (labelled by the
grid cell that produced it — system, mode, node count, …), each entry a
full registry snapshot plus the tracer's per-kind event counts.  Reports
are what makes bench trajectories diffable across PRs: two runs of fig13
produce two files whose counters can be compared field by field.

The schema is deliberately flat and validated by hand (no jsonschema
dependency); see ``docs/observability.md`` for the normative description.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional, Sequence

from repro.obs.events import EventTracer
from repro.obs.metrics import MetricsRegistry

SCHEMA = "repro.obs.report/v1"

#: Environment variable naming a directory for per-run metric snapshots.
#: When set (or when a caller passes an explicit ``metrics_dir``), the
#: runner writes one ``runner_<kind>.json`` per grid and the fig9/fig13/
#: fig16 projections one ``<name>.json`` per invocation, so bench
#: trajectories stay diffable across PRs.
METRICS_DIR_ENV = "REPRO_METRICS_DIR"

_HISTO_FIELDS = ("count", "total", "mean", "min", "max", "p50", "p90", "p99")


def snapshot_run(
    labels: Mapping[str, object],
    registry: MetricsRegistry,
    tracer: Optional[EventTracer] = None,
) -> Dict[str, object]:
    """One report run entry from a live registry (and optional tracer)."""
    entry: Dict[str, object] = {"labels": dict(labels)}
    entry.update(registry.snapshot())
    entry["events"] = tracer.counts() if tracer is not None else {}
    return entry


def labeled_run(labels: Mapping[str, object], snapshot: Mapping[str, object]) -> Dict[str, object]:
    """One report run entry from a deployment observability snapshot."""
    entry: Dict[str, object] = {"labels": dict(labels)}
    entry.update(snapshot)
    return entry


def build_report(
    name: str,
    runs: Sequence[Mapping[str, object]],
    params: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Assemble a schema-conformant report from prepared run entries."""
    report = {
        "schema": SCHEMA,
        "name": name,
        "params": _json_safe(dict(params or {})),
        "runs": [dict(run) for run in runs],
    }
    problems = validate_report(report)
    if problems:
        raise ValueError(f"refusing to build invalid report: {problems}")
    return report


def validate_report(payload: object) -> List[str]:
    """All schema violations in *payload* (empty list == valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"report must be a JSON object, got {type(payload).__name__}"]
    if payload.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}")
    if not isinstance(payload.get("name"), str) or not payload.get("name"):
        problems.append("name must be a non-empty string")
    if not isinstance(payload.get("params"), dict):
        problems.append("params must be an object")
    runs = payload.get("runs")
    if not isinstance(runs, list):
        return problems + ["runs must be an array"]
    for index, run in enumerate(runs):
        where = f"runs[{index}]"
        if not isinstance(run, dict):
            problems.append(f"{where} must be an object")
            continue
        if not isinstance(run.get("labels"), dict):
            problems.append(f"{where}.labels must be an object")
        for section in ("counters", "gauges"):
            values = run.get(section)
            if not isinstance(values, dict):
                problems.append(f"{where}.{section} must be an object")
            elif not all(isinstance(v, (int, float)) for v in values.values()):
                problems.append(f"{where}.{section} values must be numbers")
        histograms = run.get("histograms")
        if not isinstance(histograms, dict):
            problems.append(f"{where}.histograms must be an object")
        else:
            for hname, histo in histograms.items():
                if not isinstance(histo, dict) or not all(
                    isinstance(histo.get(f), (int, float)) for f in _HISTO_FIELDS
                ):
                    problems.append(
                        f"{where}.histograms[{hname!r}] must have numeric "
                        f"fields {_HISTO_FIELDS}"
                    )
        events = run.get("events")
        if not isinstance(events, dict) or not all(
            isinstance(v, int) for v in events.values()
        ):
            problems.append(f"{where}.events must map event kinds to integer counts")
    return problems


def totals(report: Mapping[str, object]) -> Dict[str, Dict[str, float]]:
    """Counters and event counts summed across all run entries."""
    counter_totals: Dict[str, float] = {}
    event_totals: Dict[str, float] = {}
    for run in report.get("runs", []):
        for name, value in run.get("counters", {}).items():
            counter_totals[name] = counter_totals.get(name, 0) + value
        for kind, count in run.get("events", {}).items():
            event_totals[kind] = event_totals.get(kind, 0) + count
    return {
        "counters": dict(sorted(counter_totals.items())),
        "events": dict(sorted(event_totals.items())),
    }


def summarize(report: Mapping[str, object]) -> str:
    """Human-readable summary of one report (the CLI's output)."""
    lines: List[str] = []
    runs = report.get("runs", [])
    lines.append(f"report: {report.get('name')}  (schema {report.get('schema')})")
    params = report.get("params") or {}
    if params:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
        lines.append(f"params: {rendered}")
    lines.append(f"runs: {len(runs)}")
    agg = totals(report)
    if agg["counters"]:
        lines.append("")
        lines.append("counters (summed across runs):")
        width = max(len(n) for n in agg["counters"])
        for name, value in agg["counters"].items():
            lines.append(f"  {name.ljust(width)}  {_fmt_num(value)}")
    if agg["events"]:
        lines.append("")
        lines.append("events (summed across runs):")
        width = max(len(n) for n in agg["events"])
        for kind, count in agg["events"].items():
            lines.append(f"  {kind.ljust(width)}  {_fmt_num(count)}")
    for run in runs:
        labels = run.get("labels", {})
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(labels.items()))
        lines.append("")
        lines.append(f"run [{rendered}]")
        for section in ("counters", "gauges"):
            values = run.get(section, {})
            if values:
                width = max(len(n) for n in values)
                lines.append(f"  {section}:")
                for name in sorted(values):
                    lines.append(f"    {name.ljust(width)}  {_fmt_num(values[name])}")
        histograms = run.get("histograms", {})
        if histograms:
            lines.append("  histograms:")
            for name in sorted(histograms):
                h = histograms[name]
                lines.append(
                    f"    {name}: n={_fmt_num(h['count'])} mean={_fmt_num(h['mean'])} "
                    f"p50={_fmt_num(h['p50'])} p90={_fmt_num(h['p90'])} "
                    f"p99={_fmt_num(h['p99'])} max={_fmt_num(h['max'])}"
                )
    return "\n".join(lines)


def write_report(report: Mapping[str, object], path: str) -> str:
    """Serialize *report* to *path*; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def metrics_out_dir(explicit: Optional[str] = None) -> Optional[str]:
    """Directory for metric snapshots: explicit arg, else $REPRO_METRICS_DIR."""
    return explicit if explicit is not None else os.environ.get(METRICS_DIR_ENV)


def emit_metrics_report(
    name: str,
    runs: Sequence[Mapping[str, object]],
    params: Mapping[str, object],
    directory: Optional[str],
) -> Optional[str]:
    """Write one schema-v1 metrics report; returns its path (None if disabled).

    *runs* pairs grid-cell labels with deployment observability snapshots:
    ``[{"labels": {...}, "counters": ..., "gauges": ..., "histograms": ...,
    "events": ...}, ...]``.
    """
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    report = build_report(name, runs, params=params)
    return write_report(report, os.path.join(directory, f"{name}.json"))


def load_report(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _fmt_num(value: object) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


def _json_safe(value: object) -> object:
    """Coerce params to JSON-encodable structures (tuples -> lists, etc.)."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
