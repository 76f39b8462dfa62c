"""The five workloads: what each runs, at what size, and how it is checked.

Every workload calls the program's own harness function — the one the
experiment matrices reach through :mod:`repro.runner.cells` — inside
``rig.cell()``, which times set-up (up to the first replayed operation) and
replay apart.  The program only ever sees generated inputs.

What the seed drives.  The size of a Harvard trace at these scales swings
by a quarter with its generator seed (a handful of users, file sizes over
four orders of magnitude), which would bury every host metric under input
noise.  So the *trace* is always generated with :data:`TRACE_SEED` (the
repo's ``common.SEED``, which every committed row uses) and
``fetch-latency`` times fixed hours of it.  The benchmark seed drives the
rest: node ids, deployment and balancer RNG, client placement, latency
coordinates, replica choice, routing sources, the accel request stream,
and which of :data:`CHURN_TRIALS` — node ids, storm, outage and victims
together — ``churn-storm`` runs.  At seed 11 ``read-replay`` is exactly
the committed pr7 cell.

Sizes are the issue's reference sizes cut to fit the driver's time cap
(114 runs in 3420 s); ``read-replay`` is kept whole because its
fingerprint is anchored to the committed ``BENCH_scale.json`` pr7 row.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

from benchmarks.e2e.metrics import ACCEL, CHURN, FETCH, READ, WRITE

Sizes = Mapping[str, Any]

#: Seed of every generated Harvard trace (see the module docstring).
TRACE_SEED = 11

#: The churn cells the seed chooses among, by ``trial`` (which seeds node
#: ids, the storm, the outage and every victim draw).  A storm's size is the
#: luck of its ~100 membership events: over trials 0-63 a cell fires
#: 22.6k-41.6k events (quartiles 15 % apart) and six lose a key for good,
#: so a free trial would put that swing under every host metric and fail on
#: some seeds.  These are the trials of 0-63 that lose nothing, settle
#: within the drain, and fire within 2.5 % of the median number of events
#: (27 567): the seed changes the schedule, not the amount of work.
CHURN_TRIALS = (8, 13, 16, 21, 22, 23, 25, 29, 39, 60, 63)


@dataclass
class Outcome:
    """What one replay did, as far as the benchmark judges it."""

    ops: int                      # numerator of ops_per_s
    attempted: int
    failed: int
    sim: Dict[str, float]         # simulated end-to-end metrics, by name
    fingerprint: Dict[str, Any]   # must repeat exactly, round after round
    problems: List[str] = field(default_factory=list)  # broken invariants
    extra: Dict[str, float] = field(default_factory=dict)  # per-layer extras

    def digest(self) -> str:
        blob = json.dumps(self.fingerprint, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(module, qualname)`` whose first call inside a cell ends set-up.
    first_op: Tuple[str, str]
    sizes: Sizes
    quick: Sizes                  # overrides for ``--quick``
    run: Callable[[int, Sizes, Any], Outcome]

    def sizes_for(self, quick: bool) -> Dict[str, Any]:
        return {**self.sizes, **(self.quick if quick else {})}


def _check(problems: List[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# ----------------------------------------------------------------------
# read-replay


def _read_replay(seed: int, size: Sizes, rig: Any) -> Outcome:
    from repro.analysis.scale import run_scale_read
    from repro.core.system import build_deployment
    from repro.runner.cells import scaled_harvard_trace
    from repro.workloads.scale import copies_for_size

    # The body of ``runner.cells.scale_cell`` for a read cell, with the
    # trace seed held apart from the deployment seed.
    with rig.cell():
        trace = scaled_harvard_trace(
            users=size["base_users"], days=size["days"], seed=TRACE_SEED,
            base_size=size["base_size"], n_nodes=size["n_nodes"],
            scale_with_size=True,
        )
        deployment = build_deployment("d2", size["n_nodes"], seed=seed)
        deployment.load_initial_image(trace)
        deployment.enable_health_monitoring(window=1.0, node_level=False)
        result = run_scale_read(
            deployment, trace,
            copies=copies_for_size(size["base_size"], size["n_nodes"]),
            users=size["users"], ops_per_user=size["ops_per_user"],
            window=size["window"], seed=seed,
        )
    row = result.deterministic_row()
    base_users = max(1, len(trace.users()))
    attempted = -(-size["users"] // base_users) * size["ops_per_user"]
    problems: List[str] = []
    _check(problems, row["streamed_rows"] == row["windows"],
           "read-replay: one metrics row per window expected")
    _check(problems, row["messages"] == row["hops"] + row["ops"],
           "read-replay: Figure-9 accounting is hops + 1 response per lookup")
    return Outcome(
        ops=row["ops"],
        attempted=attempted,
        failed=attempted - row["ops"],
        sim={"lookup_msgs_per_op": row["messages"] / row["ops"]},
        fingerprint=row,
        problems=problems,
    )


# ----------------------------------------------------------------------
# fetch-latency


def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _fetch_latency(seed: int, size: Sizes, rig: Any) -> Outcome:
    from repro.analysis.performance import compare, run_performance
    from repro.runner.cells import scaled_harvard_trace
    from repro.workloads.trace import SECONDS_PER_DAY

    def trace_for_cell() -> Any:  # memoized per process after the first call
        return scaled_harvard_trace(
            users=size["users"], days=size["days"], seed=TRACE_SEED,
            base_size=size["base_size"], n_nodes=size["n_nodes"],
            scale_with_size=True,
        )

    # The timed windows belong to the trace, so they are fixed too: the
    # harness would otherwise draw them from the seed and time 2x more or
    # fewer fetches from one seed to the next.
    windows = [
        (day * SECONDS_PER_DAY + hour * 3600.0,
         day * SECONDS_PER_DAY + hour * 3600.0 + size["window_seconds"])
        for day in range(math.ceil(size["days"])) for hour in size["window_hours"]
    ]
    results = {}
    for system in ("d2", "traditional"):
        with rig.cell():
            results[system] = run_performance(
                trace_for_cell(), system, mode=size["mode"],
                n_nodes=size["n_nodes"], bandwidth_kbps=size["bandwidth_kbps"],
                windows=windows, seed=seed,
            )
    d2, trad = results["d2"], results["traditional"]
    by_group = {name: r.timings_by_group() for name, r in results.items()}
    groups = sorted(set(by_group["d2"]) | set(by_group["traditional"]))
    failed = 0
    for key in groups:
        timings = [by_group[name].get(key) for name in ("d2", "traditional")]
        if not all(
            t is not None and math.isfinite(t.completion) and t.completion > 0.0
            for t in timings
        ):
            failed += 1
    problems: List[str] = []
    for name, result in results.items():
        observed = result.metrics["histograms"]["fetch.latency_seconds"]["count"]
        if observed != result.lookups:
            problems.append(
                f"fetch-latency/{name}: {result.lookups} lookups but "
                f"{observed} fetch latencies"
            )
            failed = len(groups)
    _check(problems, len(groups) >= 20, "fetch-latency: fewer than 20 timed groups")
    completions_ms = [t.completion * 1000.0 for t in d2.group_timings]
    probes = d2.cache_hits + d2.cache_misses
    fingerprint = {
        name: {
            "lookups": r.lookups, "lookup_messages": r.lookup_messages,
            "cache_hits": r.cache_hits, "cache_misses": r.cache_misses,
            "groups": [
                (t.user, t.start.hex(), t.fetches, t.completion.hex())
                for t in sorted(r.group_timings, key=lambda t: (t.user, t.start))
            ],
        }
        for name, r in results.items()
    }
    return Outcome(
        ops=2 * len(trace_for_cell().records),
        attempted=len(groups),
        failed=failed,
        sim={
            "lookup_msgs_per_op": d2.lookup_messages / d2.lookups,
            "cache_hit_ratio": d2.cache_hits / probes if probes else 0.0,
            "group_latency_p50_ms": statistics.median(completions_ms),
            "group_latency_p90_ms": _p90(completions_ms),
            "speedup_vs_traditional": compare(trad, d2).overall,
        },
        fingerprint=fingerprint,
        problems=problems,
        extra={
            "paper.lookup_traffic_reduction":
                1.0 - d2.lookup_messages / trad.lookup_messages,
        },
    )


# ----------------------------------------------------------------------
# churn-storm


def _churn_storm(seed: int, size: Sizes, rig: Any) -> Outcome:
    from repro.experiments.churn_storm import STORM_LEVELS
    from repro.runner import cells

    trial = CHURN_TRIALS[seed % len(CHURN_TRIALS)]
    with rig.cell():
        row = cells.churn_cell({
            "trial": trial, "seed": TRACE_SEED, **STORM_LEVELS[size["level"]], **size,
        })
    deployment = rig.deployments[-1]
    tracker = deployment.repair.tracker
    want = min(deployment.config.replica_count, len(deployment.ring))
    tracked = tracker.tracked_keys()
    under = sum(1 for key in tracked if tracker.live_count(key) < want)
    settled = row["backlog_drained"] == 0 and row["alerts_active"] == 0
    problems: List[str] = []
    _check(problems, settled, "churn-storm: repair backlog or alerts left after drain")
    _check(problems, row["joins"] + row["leaves"] + row["crashes"] > 0,
           "churn-storm: the storm changed no membership")
    fingerprint = {k: v for k, v in row.items() if k != "health"}
    fingerprint["health"] = row["health"]["summary"]
    return Outcome(
        ops=row["events_fired"],
        attempted=len(tracked),
        failed=under if settled else len(tracked),
        sim={
            "loss_prob": row["loss_prob"],
            "repair_backlog_peak": row["backlog_peak"],
        },
        fingerprint=fingerprint,
        problems=problems,
    )


# ----------------------------------------------------------------------
# write-balance


def _write_balance(seed: int, size: Sizes, rig: Any) -> Outcome:
    from repro.analysis.balance import run_harvard_balance
    from repro.experiments.workload_cache import harvard_trace
    from repro.workloads.trace import READ as READ_OP

    with rig.cell():
        trace = harvard_trace(users=size["users"], days=size["days"], seed=TRACE_SEED)
        result = run_harvard_balance(trace, "d2", n_nodes=size["n_nodes"], seed=seed)
    counters = result.metrics["counters"]
    adopted = counters["pointer.adopted"]
    settled = counters["pointer.stabilized"] + result.metrics["gauges"]["pointer.pending_ranges"]
    problems: List[str] = []
    _check(problems, result.moves > 0, "write-balance: the balancer never moved a node")
    _check(problems, len(result.samples) >= 2, "write-balance: fewer than 2 load samples")
    return Outcome(
        ops=sum(1 for record in trace.records if record.op != READ_OP),
        attempted=adopted,
        failed=adopted - settled,
        sim={
            "load_nsd": result.mean_nsd(),
            "migrated_per_written": result.migration_over_write(),
        },
        fingerprint={
            "samples": [(s.time, s.nsd.hex(), s.total_bytes) for s in result.samples],
            "written": result.daily_written, "removed": result.daily_removed,
            "migrated": result.daily_migrated, "moves": result.moves,
            "counters": counters,
        },
        problems=problems,
    )


# ----------------------------------------------------------------------
# accel-shift


def _accel_shift(seed: int, size: Sizes, rig: Any) -> Outcome:
    from repro.runner import cells

    with rig.cell():
        result = cells.accel_cell({"seed": seed, **size})
    row = result.deterministic_row()
    lookups = row["lookups"]
    resolved = row["cache_hits"] + row["learned_hits"] + row["routed"]
    return Outcome(
        ops=lookups,
        attempted=lookups,
        failed=lookups - resolved,
        sim={
            "lookup_msgs_per_op": row["messages"] / lookups,
            "cache_hit_ratio": row["cache_hits"] / lookups,
            "hit_recovered": result.hit_recovered,
        },
        fingerprint=row,
    )


# ----------------------------------------------------------------------

_ADVANCE = ("repro.core.system", "Deployment.advance_to")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        READ,
        "ROADMAP reference cell: 1e5 cloned users x 10 reads on 1e3 nodes; fs key "
        "making and finger routing do the work, caches/store/engine/spans none",
        ("repro.core.system", "Deployment.read_fetches_many"),
        {"n_nodes": 1000, "users": 100_000, "ops_per_user": 10, "window": 8192,
         "base_users": 8, "days": 0.25, "base_size": 250},
        {"n_nodes": 64, "users": 400, "window": 512, "base_size": 32},
        _read_replay,
    ),
    Workload(
        FETCH,
        "paper section 9: d2 then traditional through the timed fetch harness; only "
        "workload with lookup-cache hits, hop spans, the network model, user latency",
        _ADVANCE,
        {"users": 12, "days": 1.0, "n_nodes": 120, "base_size": 120, "mode": "para",
         "bandwidth_kbps": 1500.0, "window_seconds": 900.0,
         "window_hours": [9.5, 11.5, 14.0, 16.0]},
        {"users": 6, "n_nodes": 24, "base_size": 24},
        _fetch_latency,
    ),
    Workload(
        CHURN,
        "background maintenance under join/leave/crash plus one correlated outage: "
        "membership, repair, migration, engine, health; the read path is idle",
        _ADVANCE,
        {"level": "steady", "correlated_events": 1, "users": 1, "days": 1.0,
         "n_nodes": 48, "drain_seconds": 4 * 3600.0},
        {"users": 1, "days": 0.1, "n_nodes": 12, "drain_seconds": 2 * 3600.0},
        _churn_storm,
    ),
    Workload(
        WRITE,
        "mutations only (create/write/remove, re-versioning, pointers, balancer "
        "moves): the fs/store layers of read-replay used for writes",
        _ADVANCE,
        {"users": 16, "days": 2.0, "n_nodes": 48},
        {"users": 4, "days": 1.0, "n_nodes": 16},
        _write_balance,
    ),
    Workload(
        ACCEL,
        "all acceleration tiers under a hotspot shift: the only path through "
        "LookupAccelerator and the learned index; working set moves mid-run",
        ("repro.core.accel", "LookupAccelerator.lookup"),
        {"mode": "all", "scenario": "hotspot", "n_nodes": 256, "n_dirs": 160,
         "clients": 12, "pre_ops": 8_000, "post_ops": 12_000},
        {"n_nodes": 64, "n_dirs": 40, "pre_ops": 1_500, "post_ops": 2_500},
        _accel_shift,
    ),
)}
