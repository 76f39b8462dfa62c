"""Parent side: launch workers with a pinned environment, fold their rounds.

Workers run one at a time (the load is one closed replay: one process, one
thread), each in a fresh subprocess started with every ``REPRO_*`` variable
unset and ``PYTHONHASHSEED=0``, so span sampling, the run cache, the memo
and ``jobs`` are the program's documented defaults.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e.metrics import DRIVER_END_TO_END, END_TO_END, HOST, PER_LAYER
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src"

#: A worker that takes longer than this is stuck (the slowest round is ~8 s);
#: short enough that a driver run of five rounds still ends inside its 180 s.
WORKER_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark could not produce a result (as opposed to a wrong one)."""


def worker_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.pathsep.join((str(SOURCE), str(ROOT)))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, *, quick: bool = False, traced: bool = False,
               trace_out: Optional[str] = None) -> Dict[str, Any]:
    """One round in a fresh subprocess; returns the worker's JSON object."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SOURCE}")
    command = [sys.executable, "-m", "benchmarks.e2e.worker",
               "--workload", workload, "--seed", str(seed)]
    if quick:
        command.append("--quick")
    if traced:
        command.append("--trace")
    if trace_out:
        command += ["--trace-out", trace_out]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker timed out: {' '.join(command)}") from exc
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        # The last line of a traceback names the cause: a seam that does
        # not resolve is reported with its module and symbol.
        said = done.stderr.strip().splitlines()
        raise BenchError(
            f"worker exited {done.returncode}: {' '.join(command)}"
            + (f": {said[-1]}" if said else "")
        )
    return json.loads(lines[-1])


def spread(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, extremes and count of one metric's rounds."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def fold(workload: str, rounds: List[Dict[str, Any]],
         traced: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One workload's report from its untraced rounds (and traced pass)."""
    first = rounds[0]
    problems = [p for r in rounds for p in r["problems"]]
    digests = {r["digest"] for r in rounds}
    if len(digests) > 1:
        problems.append(f"{workload}: fingerprints differ between rounds: {sorted(digests)}")
    report: Dict[str, Any] = {
        "sizes": first["sizes"],
        "rounds": len(rounds),
        "ops": first["ops"],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "fingerprint": first["digest"],
        "end_to_end": {},
    }
    for metric in END_TO_END:
        if workload not in metric.workloads:
            continue
        if metric.kind == HOST:
            entry = spread([r["host"][metric.name] for r in rounds])
        elif metric.name == "failed_share":
            entry = {"median": report["failed"] / report["attempted"], "n": len(rounds)}
        else:
            values = {r["sim"][metric.name] for r in rounds}
            if len(values) > 1:
                problems.append(f"{workload}: {metric.name} differs between rounds")
            entry = {"median": first["sim"][metric.name], "n": len(rounds)}
        entry.update(unit=metric.unit, better=metric.better, bound=metric.bound,
                     kind=metric.kind)
        report["end_to_end"][metric.name] = entry
    if traced is not None:
        report["per_layer"] = per_layer(rounds, traced, problems)
    report["problems"] = problems
    report["correct"] = not problems and report["failed"] == 0
    return report


def per_layer(rounds: List[Dict[str, Any]], traced: Dict[str, Any],
              problems: List[str]) -> Dict[str, float]:
    """The per-layer metrics of a traced pass, read against untraced rounds."""
    layers = dict(traced["layers"])
    untraced_replay = statistics.median(r["host"]["replay_s"] for r in rounds)
    layers["host.import_s"] = statistics.median(r["host"]["import_s"] for r in rounds)
    layers["host.calib_s"] = statistics.median(r["host"]["calib_s"] for r in rounds)
    layers["trace.overhead_ratio"] = traced["host"]["replay_s"] / untraced_replay
    mismatch = int(traced["digest"] != rounds[0]["digest"])
    layers["check.fingerprint_mismatches"] = mismatch
    if mismatch:
        problems.append(f"{traced['workload']}: traced fingerprint differs from untraced")
    if layers["check.oracle_mismatches"]:
        problems.append(
            f"{traced['workload']}: {layers['check.oracle_mismatches']} lookup answers "
            "were not the ring owner"
        )
    problems.extend(traced["problems"])
    return {m.name: layers[m.name] for m in PER_LAYER}


def metadata(seed: int, rounds: int, quick: bool) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "git_sha": sha, "python": platform.python_version(),
        "nproc": os.cpu_count(), "seed": seed, "rounds": rounds, "quick": quick,
        "pythonhashseed": "0", "repro_env": "unset",
    }


def run_suite(*, seed: int, rounds: int, quick: bool = False,
              trace_out: Optional[str] = None, log=lambda message: None) -> Dict[str, Any]:
    """Timed rounds of every workload, interleaved, then one traced pass each."""
    names = list(WORKLOADS)
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for index in range(rounds):  # w1 w2 ... w5 w1 ...: drift hits all alike
        for name in names:
            result = run_worker(name, seed, quick=quick)
            results[name].append(result)
            log(f"{name} round {index + 1}/{rounds}: {result['host']['wall_s']:.2f} s")
    report = {"meta": metadata(seed, rounds, quick), "workloads": {}}
    for name in names:
        out = f"{trace_out}.{name}.jsonl" if trace_out else None
        traced = run_worker(name, seed, quick=quick, traced=True, trace_out=out)
        log(f"{name} traced pass: {traced['host']['wall_s']:.2f} s")
        report["workloads"][name] = fold(name, results[name], traced)
    report["claim"] = None
    return report


def driver_metrics(report: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    """The metrics object of the driver's result line for one workload."""
    if trace:
        return {m.name: {"value": report["per_layer"][m.name], "unit": m.unit}
                for m in PER_LAYER}
    return {
        m.name: {"value": report["end_to_end"][m.name]["median"], "unit": m.unit}
        for m in DRIVER_END_TO_END
    }
