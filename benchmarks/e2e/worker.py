"""One round of one workload, in a process of its own.

``python -m benchmarks.e2e.worker --workload W --seed N [--quick] [--trace]``
runs the workload once and prints one JSON object as the last line of its
standard output.  Untraced, the only things placed in the program are two
untimed hooks: a capture of the deployments the cells build, and a marker
on the workload's first replayed operation that removes itself when hit.
With ``--trace`` the layer seams are installed as well.
"""

from __future__ import annotations

from time import perf_counter

_T0 = perf_counter()  # worker start: set-up time is counted from here

import argparse
import importlib
import json
import resource
import sys
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from benchmarks.e2e import seams
from benchmarks.e2e.metrics import OUTCOMES
from benchmarks.e2e.workloads import WORKLOADS, Outcome, Workload

#: Modules the cells import lazily; loaded up front so that import time is
#: measured on its own and from-imports exist before the seams rebind them.
_PRELOAD = (
    "repro.runner.cells", "repro.analysis.scale", "repro.analysis.performance",
    "repro.analysis.balance", "repro.analysis.accel",
    "repro.experiments.churn_storm", "repro.experiments.workload_cache",
    "repro.dht.membership", "repro.store.repair", "repro.obs.health",
    "repro.obs.stream", "repro.sim.failures",
)


class Rig:
    """Times a cell's set-up and replay apart and keeps what the cell built."""

    def __init__(self, workload: Workload, patcher: seams.Patcher,
                 recorder: Optional[seams.Recorder]) -> None:
        self.deployments: List[Any] = []
        self.setup_s = 0.0
        self.replay_s = 0.0
        self._recorder = recorder
        self._first_at: Optional[float] = None
        self._cells = 0
        patcher.replace("repro.core.system", "build_deployment", self._capture)
        # The marker sits outside whatever is on the class now (the seam
        # wrapper in a traced round) and swaps itself out when first hit.
        self._marked = seams.resolve(*workload.first_op)

    def _capture(self, build: Any) -> Any:
        def build_deployment(*args: Any, **kwargs: Any) -> Any:
            deployment = build(*args, **kwargs)
            self.deployments.append(deployment)
            return deployment
        return build_deployment

    @contextmanager
    def cell(self) -> Iterator[None]:
        """Run one cell: set-up lasts until its first replayed operation."""
        owner, attr, inner = self._marked
        recorder = self._recorder

        def first_op(*args: Any, **kwargs: Any) -> Any:
            setattr(owner, attr, inner)
            if recorder is not None:
                recorder.phase(seams.REPLAY)
            self._first_at = perf_counter()
            return inner(*args, **kwargs)

        self._first_at = None
        setattr(owner, attr, first_op)
        if recorder is not None:
            recorder.phase(seams.SETUP)
        # The first cell's set-up starts at worker start (imports included).
        armed_at = perf_counter() if self._cells else _T0
        self._cells += 1
        try:
            yield
        finally:
            ended_at = perf_counter()
            setattr(owner, attr, inner)
            if recorder is not None:
                recorder.phase(seams.OUTSIDE)
        if self._first_at is None:
            raise RuntimeError("the workload's first-op seam was never called")
        self.setup_s += self._first_at - armed_at
        self.replay_s += ended_at - self._first_at


def calibrate(loops: int = 400_000) -> float:
    """Seconds for a fixed pure-Python loop; for reading across machines only."""
    started = perf_counter()
    total = 0
    for index in range(loops):
        total += index % 7
    return perf_counter() - started


def _registry_sum(deployments: List[Any], name: str) -> float:
    total = 0
    for deployment in deployments:
        metric = deployment.metrics.get(name)
        if metric is not None:
            total += metric.value
    return total


def _histogram_percentile(deployments: List[Any], name: str, pct: float) -> float:
    for deployment in deployments:
        histogram = deployment.metrics.get(name)
        if histogram is not None and histogram.count:
            return float(histogram.percentile(pct))
    return 0.0


def layer_metrics(recorder: seams.Recorder, deployments: List[Any],
                  outcome: Outcome, replay_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced round, by name."""
    replay, setup = recorder.self_s[seams.REPLAY], recorder.self_s[seams.SETUP]
    out: Dict[str, float] = {}
    for layer in (*seams.LAYERS, seams.HARNESS):
        out[f"{layer}.self_s"] = replay.get(layer, 0.0)
        out[f"{layer}.setup_self_s"] = setup.get(layer, 0.0)
    out["check.oracle_s"] = replay.get(seams.CHECK, 0.0)
    out["obs.share"] = (
        sum(replay.get(layer, 0.0) for layer in seams.OBS_LAYERS) / replay_s
        if replay_s > 0 else 0.0
    )

    calls_by_layer: Dict[str, int] = {}
    for seam in seams.SEAMS:
        calls_by_layer[seam.layer] = (
            calls_by_layer.get(seam.layer, 0) + recorder.calls.get(seam.name, 0)
        )
    counted = recorder.counters

    def reg(name: str) -> float:
        return _registry_sum(deployments, name)

    def called(module: str, qualname: str) -> int:
        return recorder.calls.get(f"{module}:{qualname}", 0)

    out["workloads.records"] = counted["workloads.records"]
    out["fs.calls"] = calls_by_layer["fs"]
    out["fs.block_ops"] = counted["fs.block_ops"]
    out["fs.fetch_keys"] = counted["fs.fetch_keys"]

    lookups, hops = counted["dht.routing.lookups"], counted["dht.routing.hops"]
    out["dht.routing.lookups"] = lookups
    out["dht.routing.hops"] = hops
    out["dht.routing.messages"] = hops + lookups
    out["dht.routing.hops_per_lookup"] = hops / lookups if lookups else 0.0

    out["core.lookup_cache.probes"] = called("repro.core.lookup_cache", "LookupCache.probe")
    out["core.lookup_cache.hits"] = reg("lookup.hits")
    out["core.lookup_cache.misses"] = reg("lookup.misses")
    out["core.lookup_cache.stale_hits"] = reg("lookup.stale_hits")
    out["core.lookup_cache.evictions"] = (
        reg("lookup.evictions") + reg("lookup.capacity_evictions")
    )

    out["core.accel.lookups"] = reg("accel.lookups")
    for tier in ("cache", "learned", "route"):
        out[f"core.accel.{tier}_tier"] = counted[f"core.accel.{tier}_tier"]
    out["core.accel.membership_evictions"] = reg("lookup.membership_evictions")
    out["dht.learned.hits"] = reg("dht.learned.hit")
    out["dht.learned.mispredicts"] = reg("dht.learned.mispredict")
    out["dht.learned.retrains"] = reg("dht.learned.retrain")

    for name in ("joins", "leaves", "crashes", "refused"):
        out[f"dht.membership.{name}"] = reg(f"membership.{name}")
    probes, moves = reg("balance.probes"), reg("balance.moves")
    out["dht.load_balance.probes"] = probes
    out["dht.load_balance.moves"] = moves
    out["dht.load_balance.moves_per_probe"] = moves / probes if probes else 0.0

    repairs = [d.repair.stats for d in deployments if d.repair is not None]
    for name in ("scheduled", "completed", "retries", "requeued", "abandoned",
                 "repaired_bytes"):
        out[f"store.repair.{name}"] = sum(getattr(stats, name) for stats in repairs)
    scheduled = out["store.repair.scheduled"]
    out["store.repair.completed_per_scheduled"] = (
        out["store.repair.completed"] / scheduled if scheduled else 0.0
    )

    out["store.migration.writes"] = reg("store.writes")
    out["store.migration.removes"] = reg("store.removes")
    out["store.migration.migrated_bytes"] = reg("store.migrated_bytes")
    out["store.migration.pointer_adopted"] = reg("pointer.adopted")
    out["store.migration.pointer_stabilized"] = reg("pointer.stabilized")
    out["store.migration.stab_p95_s"] = _histogram_percentile(
        deployments, "pointer.stabilization_seconds", 95.0
    )

    fired = reg("sim.events_fired")
    out["sim.engine.events_fired"] = fired
    out["sim.engine.events_cancelled"] = reg("sim.events_cancelled")
    engine_s = out["sim.engine.self_s"] + out["sim.engine.setup_self_s"]
    out["sim.engine.us_per_event"] = engine_s / fired * 1e6 if fired else 0.0
    out["sim.net.transfers"] = called("repro.sim.transport", "TcpTransport.transfer")
    out["sim.net.fetch_latency_p99_ms"] = 1000.0 * _histogram_percentile(
        deployments, "fetch.latency_seconds", 99.0
    )

    tracers = [d.spans for d in deployments if d.spans]
    out["obs.spans.started"] = sum(t.started for t in tracers)
    out["obs.spans.finished"] = sum(t.finished for t in tracers)
    # Rotated out of the ring buffer unexported (Tracer.dropped also counts
    # spans that left through drain()).
    out["obs.spans.dropped"] = (
        sum(t.started - len(t) for t in tracers) - counted["obs.spans.drained"]
    )
    out["obs.events.emitted"] = sum(d.tracer.emitted for d in deployments)
    out["obs.health.samples"] = sum(
        d.health.summary()["samples"] for d in deployments if d.health is not None
    )
    out["obs.health.alerts_fired"] = reg("health.alerts_fired")
    out["obs.health.alerts_resolved"] = reg("health.alerts_resolved")
    out["obs.export.rows"] = counted["obs.export.rows"]

    out["check.oracle_checks"] = counted["check.oracle_checks"]
    out["check.oracle_mismatches"] = counted["check.oracle_mismatches"]
    out["trace.replay_s"] = replay_s
    out["paper.lookup_traffic_reduction"] = outcome.extra.get(
        "paper.lookup_traffic_reduction", 0.0
    )
    for metric in OUTCOMES:
        out[f"outcome.{metric.name}"] = outcome.sim.get(metric.name, 0.0)
    return out


def run_round(workload: Workload, seed: int, *, quick: bool, traced: bool,
              trace_out: Optional[str] = None) -> Dict[str, Any]:
    started = perf_counter()
    for name in _PRELOAD:
        importlib.import_module(name)
    import_s = perf_counter() - started
    # Every round, traced or not: a renamed seam stops the first worker of a
    # run, not the traced pass after all the timed rounds.
    seams.check_seams()

    patcher = seams.Patcher()
    recorder = seams.Recorder(keep_spans=bool(trace_out)) if traced else None
    if recorder is not None:
        seams.install(patcher, recorder)
    rig = Rig(workload, patcher, recorder)
    patcher.rebind_loaded()
    sizes = workload.sizes_for(quick)
    try:
        outcome = workload.run(seed, sizes, rig)
    finally:
        patcher.undo()
    wall_s = perf_counter() - _T0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result: Dict[str, Any] = {
        "workload": workload.name, "seed": seed, "traced": traced, "sizes": sizes,
        "host": {
            "setup_s": rig.setup_s, "replay_s": rig.replay_s, "wall_s": wall_s,
            "ops_per_s": outcome.ops / rig.replay_s,
            "peak_rss_mb": peak_rss_mb,
            "import_s": import_s, "calib_s": calibrate(),
        },
        "ops": outcome.ops, "attempted": outcome.attempted, "failed": outcome.failed,
        "sim": outcome.sim, "digest": outcome.digest(),
        "fingerprint": outcome.fingerprint, "problems": outcome.problems,
    }
    if recorder is not None:
        layers = layer_metrics(recorder, rig.deployments, outcome, rig.replay_s)
        result["layers"] = layers
        result["seam_calls"] = dict(recorder.calls)
        if trace_out:
            result["spans_written"] = recorder.write_jsonl(
                trace_out, f"{workload.name}/{seed}"
            )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    result = run_round(
        WORKLOADS[args.workload], args.seed, quick=args.quick, traced=args.trace,
        trace_out=args.trace_out,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
