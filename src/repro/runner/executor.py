"""Process-parallel grid executor with disk-cache short-circuiting.

:func:`run_cells` is the one entry point the experiment matrices call: it
resolves each cell from the cheapest source first — the on-disk result
cache, then fresh computation, fanned out over a
:class:`~concurrent.futures.ProcessPoolExecutor` when more than one
worker is allowed.  Results come back in cell order and are identical
whatever ``jobs`` is (see :mod:`repro.runner.cells` for the determinism
contract), so every figure/table row is byte-identical between serial and
parallel runs.

Worker count resolution: explicit ``jobs`` argument, else ``$REPRO_JOBS``,
else 1 (serial — today's behavior).  ``0`` means one worker per CPU.

Each invocation records a :class:`RunnerStats` (retrievable via
:func:`last_stats`) and, when metric emission is on
(``$REPRO_METRICS_DIR``), writes a small ``runner_<kind>.json`` report.
Its ``sim.events_fired`` counter sums the simulator work of *freshly
computed* cells only, so a rerun that was fully served from the disk
cache reports 0 — the "zero simulation work" check CI relies on.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.report import emit_metrics_report, metrics_out_dir, snapshot_run
from repro.runner.cache import RunCache
from repro.runner.cells import execute_cell

#: Environment variable holding the default worker count.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg, else ``$REPRO_JOBS``, else 1 (serial).

    ``0`` (from either source) means one worker per CPU; unparsable
    environment values fall back to serial.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            return 1
    if jobs == 0:
        return os.cpu_count() or 1
    return max(1, jobs)


@dataclass
class RunnerStats:
    """What one :func:`run_cells` invocation did."""

    kind: str
    jobs: int
    cells_total: int = 0
    cells_cached: int = 0     # served from the disk cache
    cells_computed: int = 0   # freshly simulated (serial or in workers)
    events_fired: int = 0     # sim.events_fired summed over computed cells only
    wall_seconds: float = 0.0
    cache_dir: Optional[str] = None


_LAST_STATS: Dict[str, RunnerStats] = {}
_MOST_RECENT: Optional[RunnerStats] = None


def last_stats(kind: Optional[str] = None) -> Optional[RunnerStats]:
    """Stats of the most recent :func:`run_cells` call (optionally by kind)."""
    if kind is not None:
        return _LAST_STATS.get(kind)
    return _MOST_RECENT


def run_cells(
    kind: str,
    cells: Sequence[Mapping[str, Any]],
    *,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    metrics_name: Optional[str] = None,
    metrics_dir: Optional[str] = None,
) -> List[Any]:
    """Evaluate all *cells* of one *kind*; returns results in cell order.

    Cache hits never enter the pool; misses run serially when ``jobs <= 1``
    (or only one cell is pending), otherwise in worker processes.  Freshly
    computed results are written back to the cache in the parent, so one
    writer per cell keeps concurrent grids race-free.
    """
    global _MOST_RECENT
    started = time.perf_counter()
    jobs = resolve_jobs(jobs)
    cache = RunCache.from_env() if cache is None else cache
    stats = RunnerStats(
        kind=kind, jobs=jobs, cells_total=len(cells), cache_dir=cache.root
    )

    results: List[Any] = [None] * len(cells)
    pending: List[int] = []
    for index, cell in enumerate(cells):
        hit, value = cache.get(kind, cell)
        if hit:
            results[index] = value
            stats.cells_cached += 1
        else:
            pending.append(index)

    if pending:
        if jobs > 1 and len(pending) > 1:
            with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
                futures = [
                    pool.submit(execute_cell, kind, dict(cells[i])) for i in pending
                ]
                computed = [future.result() for future in futures]
        else:
            computed = [execute_cell(kind, cells[i]) for i in pending]
        for index, value in zip(pending, computed):
            results[index] = value
            cache.put(kind, cells[index], value)
            stats.cells_computed += 1
            stats.events_fired += _events_fired(value)

    stats.wall_seconds = time.perf_counter() - started
    _LAST_STATS[kind] = stats
    _MOST_RECENT = stats
    _emit_stats_report(stats, metrics_name, metrics_dir, results)
    return results


def _section(payload: Any, name: str) -> Mapping[str, Any]:
    """``payload[name]`` when both are mappings, else an empty mapping."""
    section = payload.get(name) if isinstance(payload, Mapping) else None
    return section if isinstance(section, Mapping) else {}


def _cell_payloads(results: Iterable[Any]):
    """Yield ``(metrics, trace, health)`` once for each cell result.

    The one place a cell result is unwrapped.  A result object carries its
    deployment's observability snapshot, its span dicts and (optionally)
    its health export in ``metrics`` / ``trace`` / ``health`` attributes;
    availability cells return a mapping of such objects, which is
    flattened.  A mapping is tested for a ``health`` key *before* it is
    flattened: churn rows are plain dicts, and flattening them into values
    would strip the payload off the row that owns it.  A churn row's own
    counters are not a snapshot and stay unmerged.  ``health`` is a mapping
    holding ``rows`` (series + alert dicts) and ``summary``, or None.
    """
    for result in results:
        if isinstance(result, Mapping):
            health = result.get("health")
            if isinstance(health, Mapping):
                yield None, None, health
            else:
                yield from _cell_payloads(result.values())
        elif result is not None:
            health = getattr(result, "health", None)
            yield (
                getattr(result, "metrics", None),
                getattr(result, "trace", None),
                health if isinstance(health, Mapping) else None,
            )


def _events_fired(result: Any) -> int:
    """``sim.events_fired`` accumulated inside one freshly computed result."""
    return sum(
        int(_section(metrics, "counters").get("sim.events_fired", 0))
        for metrics, _, _ in _cell_payloads([result])
    )


#: Counter namespaces aggregated from cell results into runner reports —
#: the lookup-cache and acceleration telemetry (hit/miss/staleness,
#: learned-index hits/mispredicts/retrains) that used to stay buried in
#: per-cell snapshots while only traffic cut was visible run-level.
_MERGED_COUNTER_PREFIXES = ("lookup.", "dht.learned.", "accel.")


def _merge_results(registry: Any, results: Sequence[Any]) -> None:
    """Fold every cell's snapshot and health summary into the runner report.

    Worker processes cannot share live metric objects, so each result
    ships its deployment snapshot (histograms with reservoirs); here the
    histograms are restored and merged into run-level distributions, the
    lookup/learned/accel counters and ``lookup.occupancy`` summed, a
    run-level ``lookup.hit_ratio`` derived, and the alert totals summed
    (per severity too, so ``runner_<kind>.json`` answers "how well did the
    caches do" and "did anything go critical" directly).  All of it is
    additive in cell order, so the totals are the same whatever ``jobs``
    was.
    """
    histograms: Dict[str, Any] = {}
    totals: Dict[str, int] = {}
    occupancy: Optional[float] = None
    alerts = {"fired": 0, "resolved": 0, "active": 0}
    by_severity: Dict[str, int] = {}
    saw_health = False
    for metrics, _, health in _cell_payloads(results):
        for name, snapshot in sorted(_section(metrics, "histograms").items()):
            if not isinstance(snapshot, Mapping):
                continue
            restored = Histogram.from_snapshot(name, snapshot)
            if name in histograms:
                histograms[name].merge(restored)
            else:
                histograms[name] = restored
        for name, value in _section(metrics, "counters").items():
            if name.startswith(_MERGED_COUNTER_PREFIXES):
                totals[name] = totals.get(name, 0) + int(value)
        gauges = _section(metrics, "gauges")
        if "lookup.occupancy" in gauges:
            occupancy = (occupancy or 0.0) + float(gauges["lookup.occupancy"])
        summary = health.get("summary") if health is not None else None
        if isinstance(summary, Mapping):
            saw_health = True
            for state in alerts:
                alerts[state] += int(summary.get(f"alerts_{state}", 0))
            for severity, count in _section(summary, "by_severity").items():
                by_severity[severity] = by_severity.get(severity, 0) + int(count)
    for name in sorted(histograms):
        registry.register(histograms[name])
    for name in sorted(totals):
        registry.counter(name).inc(totals[name])
    if totals:
        hits = totals.get("lookup.hits", 0)
        lookups = hits + totals.get("lookup.misses", 0)
        registry.gauge("lookup.hit_ratio").set(hits / lookups if lookups else 0.0)
    if occupancy is not None:
        registry.gauge("lookup.occupancy").set(occupancy)
    if saw_health:
        registry.counter("health.alerts_fired").inc(alerts["fired"])
        registry.counter("health.alerts_resolved").inc(alerts["resolved"])
        registry.gauge("health.alerts_active").set(alerts["active"])
        for severity in sorted(by_severity):
            registry.counter(f"health.alerts_fired.{severity}").inc(
                by_severity[severity]
            )


def _write_jsonl_files(
    metrics_name: str, results: Sequence[Any], directory: str
) -> Tuple[List[str], List[str]]:
    """Export each cell's spans and health rows, one JSONL file per cell.

    Spans go to ``<metrics_name>.trace<k>.jsonl`` and health rows, in
    evaluation order, to ``<metrics_name>.health<k>.jsonl`` — exactly what
    ``python -m repro.obs trace`` / ``health`` consume.  Returns the names
    of the trace files and of the health files written.
    """
    from repro.obs.stream import JsonlWriter

    def write(rows: Any, stem: str, filenames: List[str]) -> None:
        if not rows:
            return
        filename = f"{metrics_name}.{stem}{len(filenames)}.jsonl"
        with JsonlWriter(os.path.join(directory, filename)) as writer:
            for row in rows:
                writer.write(row)
        filenames.append(filename)

    traces: List[str] = []
    health_files: List[str] = []
    for _, trace, health in _cell_payloads(results):
        write(trace, "trace", traces)
        write(health and health.get("rows"), "health", health_files)
    return traces, health_files


def _emit_stats_report(
    stats: RunnerStats,
    metrics_name: Optional[str],
    metrics_dir: Optional[str],
    results: Sequence[Any] = (),
) -> Optional[str]:
    """Write one ``<metrics_name>.json`` runner report (when emission is on)."""
    if not metrics_name:
        return None
    directory = metrics_out_dir(metrics_dir)
    if not directory:
        return None
    registry = MetricsRegistry()
    registry.counter("runner.cells_total").inc(stats.cells_total)
    registry.counter("runner.cells_cached").inc(stats.cells_cached)
    registry.counter("runner.cells_computed").inc(stats.cells_computed)
    registry.counter("sim.events_fired").inc(stats.events_fired)
    registry.gauge("runner.jobs").set(stats.jobs)
    registry.gauge("runner.wall_seconds").set(stats.wall_seconds)
    _merge_results(registry, results)
    entry = snapshot_run({"kind": stats.kind, "jobs": stats.jobs}, registry)
    params: Dict[str, Any] = {
        "kind": stats.kind,
        "jobs": stats.jobs,
        "cache_dir": stats.cache_dir,
    }
    traces, health = _write_jsonl_files(metrics_name, results, directory)
    if traces:
        params["traces"] = traces
    if health:
        params["health"] = health
    return emit_metrics_report(metrics_name, [entry], params, directory)
