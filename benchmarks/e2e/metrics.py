"""The benchmark's metric vocabulary: names, units, directions, bounds.

``BENCHMARK.json`` lists the same names and units; the tests compare the
two.  Two lists of end-to-end metrics exist because the driver contract
wants every bounded metric reported, non-zero, on *every* workload:

* :data:`END_TO_END` — all fifteen, as ``python -m benchmarks.e2e`` prints
  and ``compare`` judges them, each on the workloads it is defined on;
* :data:`DRIVER_END_TO_END` — the four host metrics defined on all five
  workloads, which is what ``run.py --trace 0`` prints.

The ten simulated outcomes that apply to some workloads only reach the
driver in the per-layer list under ``outcome.*`` (0 where not defined).
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from benchmarks.e2e.seams import HARNESS

HOST, SIM = "host", "sim"

READ, FETCH, CHURN, WRITE, ACCEL = (
    "read-replay", "fetch-latency", "churn-storm", "write-balance", "accel-shift",
)
ALL = (READ, FETCH, CHURN, WRITE, ACCEL)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str              # "lower" | "higher"
    bound: float             # share of the parent's median; 0.0 = exact
    kind: str                # HOST (measured) | SIM (deterministic)
    workloads: Tuple[str, ...]


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, HOST, ALL),
    EndToEnd("wall_s", "s", "lower", 0.25, HOST, ALL),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25, HOST, ALL),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15, HOST, ALL),
    EndToEnd("failed_share", "ratio", "lower", 0.0, SIM, ALL),
    EndToEnd("lookup_msgs_per_op", "count", "lower", 0.0, SIM, (READ, FETCH, ACCEL)),
    EndToEnd("cache_hit_ratio", "ratio", "higher", 0.0, SIM, (FETCH, ACCEL)),
    EndToEnd("group_latency_p50_ms", "ms", "lower", 0.0, SIM, (FETCH,)),
    EndToEnd("group_latency_p90_ms", "ms", "lower", 0.0, SIM, (FETCH,)),
    EndToEnd("speedup_vs_traditional", "ratio", "higher", 0.0, SIM, (FETCH,)),
    EndToEnd("hit_recovered", "ratio", "higher", 0.0, SIM, (ACCEL,)),
    EndToEnd("load_nsd", "ratio", "lower", 0.0, SIM, (WRITE,)),
    EndToEnd("migrated_per_written", "ratio", "lower", 0.0, SIM, (WRITE,)),
    EndToEnd("loss_prob", "ratio", "lower", 0.0, SIM, (CHURN,)),
    EndToEnd("repair_backlog_peak", "count", "lower", 0.0, SIM, (CHURN,)),
)

#: Host metrics: defined, and never zero, on every workload.
DRIVER_END_TO_END: Tuple[EndToEnd, ...] = tuple(
    m for m in END_TO_END if m.kind == HOST
)
#: Simulated outcomes (``failed_share`` travels as ``attempted``/``failed``).
OUTCOMES: Tuple[EndToEnd, ...] = tuple(
    m for m in END_TO_END if m.kind == SIM and m.name != "failed_share"
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str


def _layer_metrics() -> List[PerLayer]:
    rows: List[PerLayer] = []

    def add(layer: str, *counts: Tuple[str, str, str]) -> None:
        rows.append(PerLayer(f"{layer}.self_s", "s", "lower"))
        rows.append(PerLayer(f"{layer}.setup_self_s", "s", "lower"))
        rows.extend(PerLayer(f"{layer}.{n}", unit, better) for n, unit, better in counts)

    low = "lower"
    add("workloads", ("records", "count", low))
    add("fs", ("calls", "count", low), ("block_ops", "count", low),
        ("fetch_keys", "count", low))
    add("dht.routing", ("lookups", "count", low), ("hops", "count", low),
        ("messages", "count", low), ("hops_per_lookup", "count", low))
    add("core.lookup_cache", ("probes", "count", low), ("hits", "count", "higher"),
        ("misses", "count", low), ("stale_hits", "count", low),
        ("evictions", "count", low))
    add("core.accel", ("lookups", "count", low), ("cache_tier", "count", "higher"),
        ("learned_tier", "count", "higher"), ("route_tier", "count", low),
        ("membership_evictions", "count", low))
    add("dht.learned", ("hits", "count", "higher"), ("mispredicts", "count", low),
        ("retrains", "count", low))
    add("dht.membership", ("joins", "count", low), ("leaves", "count", low),
        ("crashes", "count", low), ("refused", "count", low))
    add("dht.load_balance", ("probes", "count", low), ("moves", "count", low),
        ("moves_per_probe", "ratio", low))
    add("store.repair", ("scheduled", "count", low), ("completed", "count", low),
        ("retries", "count", low), ("requeued", "count", low),
        ("abandoned", "count", low), ("repaired_bytes", "B", low),
        ("completed_per_scheduled", "ratio", "higher"))
    add("store.migration", ("writes", "count", low), ("removes", "count", low),
        ("migrated_bytes", "B", low), ("pointer_adopted", "count", low),
        ("pointer_stabilized", "count", low), ("stab_p95_s", "s", low))
    add("sim.engine", ("events_fired", "count", low), ("events_cancelled", "count", low),
        ("us_per_event", "us", low))
    add("sim.net", ("transfers", "count", low), ("fetch_latency_p99_ms", "ms", low))
    add("obs.spans", ("started", "count", low), ("finished", "count", low),
        ("dropped", "count", low))
    add("obs.events", ("emitted", "count", low))
    add("obs.health", ("samples", "count", low), ("alerts_fired", "count", low),
        ("alerts_resolved", "count", low))
    add("obs.export", ("rows", "count", low))
    rows += [
        PerLayer("obs.share", "ratio", low),
        PerLayer(f"{HARNESS}.self_s", "s", low),
        PerLayer(f"{HARNESS}.setup_self_s", "s", low),
        PerLayer("host.import_s", "s", low),
        PerLayer("host.calib_s", "s", low),
        PerLayer("trace.replay_s", "s", low),
        PerLayer("trace.overhead_ratio", "ratio", low),
        PerLayer("check.oracle_s", "s", low),
        PerLayer("check.oracle_checks", "count", "higher"),
        PerLayer("check.oracle_mismatches", "count", low),
        PerLayer("check.fingerprint_mismatches", "count", low),
        PerLayer("paper.lookup_traffic_reduction", "ratio", "higher"),
    ]
    rows += [PerLayer(f"outcome.{m.name}", m.unit, m.better) for m in OUTCOMES]
    return rows


PER_LAYER: Tuple[PerLayer, ...] = tuple(_layer_metrics())
