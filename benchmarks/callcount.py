"""Python call counts by package of ``src/repro``: the call ledger.

Usage (from the repository root)::

    python benchmarks/callcount.py --label pr33            # measure, append a run
    python benchmarks/callcount.py --label pr32 --root DIR  # measure another checkout
    python benchmarks/callcount.py --check                  # recompute the newest run

:class:`CallCounter` is the one ``sys.setprofile`` collector of the
benchmarks: it counts Python ``call`` events (a generator resumed counts
again) per code object, and buckets them by package of ``src/repro``.

A measurement is one row per cell, each in a fresh process under
``PYTHONHASHSEED=0``: the five end-to-end workloads at seed 11, run by the
untraced round of ``benchmarks/e2e/worker.py`` (imported, not changed), and
the ``read-replay`` image load alone.  A row holds the calls by package,
their total and the cell's outcome digest.  Runs are appended to
``BENCH_calls.json`` and validated through the trajectory path of
:mod:`repro.experiments.scale_matrix`, so a truncated or hand-edited file
fails with a :class:`~repro.experiments.scale_matrix.TrajectoryError`.
Counts depend on the Python minor version (3.12 inlines comprehensions), so
every row records it and ``--check`` refuses to compare across versions.
``--check`` exits 1 on any count or digest that differs from the newest run.
A measurement takes under a minute on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_CALLS = os.path.join(ROOT, "BENCH_calls.json")
SEED = 11
WORKLOADS = ("read-replay", "fetch-latency", "churn-storm", "write-balance", "accel-shift")
IMAGE_LOAD = "read-replay/image-load"
CELLS = (*WORKLOADS, IMAGE_LOAD)
PYTHON = f"{sys.version_info[0]}.{sys.version_info[1]}"


class CallCounter:
    """Counts Python ``call`` events per code object while entered, in this
    thread and in threads started meanwhile."""

    def __init__(self) -> None:
        self.counts: Dict[Any, int] = defaultdict(int)

    def _profile(self, frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            self.counts[frame.f_code] += 1

    def __enter__(self) -> "CallCounter":
        sys.setprofile(self._profile)
        threading.setprofile(self._profile)
        return self

    def __exit__(self, *exc: Any) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def total(self) -> int:
        """Every call counted, whatever code it entered."""
        return sum(self.counts.values())

    def of(self, fn: Callable[..., Any]) -> int:
        """Calls of one function (or method) so far."""
        return self.counts.get(fn.__code__, 0)

    def by_package(self, src: str) -> Dict[str, int]:
        """Calls into ``src/repro``, by package (``repro`` for its top-level
        modules)."""
        package_root = os.path.join(os.path.abspath(src), "repro") + os.sep
        buckets: Dict[str, int] = defaultdict(int)
        for code, calls in self.counts.items():
            if code.co_filename.startswith(package_root):
                inner = code.co_filename[len(package_root):].split(os.sep)
                buckets["repro" if len(inner) == 1 else f"repro.{inner[0]}"] += calls
        return dict(sorted(buckets.items()))


def _store_digest(store: Any) -> str:
    """What a load leaves in the store, in order, hashed."""
    blob = repr((
        list(store.directory._sizes.items()), list(store.physical_at.items()),
        list(store._removes_at.items()), store.ledger.total_written,
        store.ledger.total_removed, store.metrics.snapshot()["counters"],
        store.sim.pending(),
    ))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def measure_cell(cell: str, src: str) -> Dict[str, Any]:
    """One row, measured in this process (a fresh one: memos start cold)."""
    if cell == IMAGE_LOAD:
        from benchmarks.e2e.workloads import TRACE_SEED, WORKLOADS as E2E
        from repro.core.system import build_deployment
        from repro.runner.cells import scaled_harvard_trace

        size = E2E["read-replay"].sizes
        trace = scaled_harvard_trace(
            users=size["base_users"], days=size["days"], seed=TRACE_SEED,
            base_size=size["base_size"], n_nodes=size["n_nodes"], scale_with_size=True,
        )
        deployment = build_deployment("d2", size["n_nodes"], seed=SEED)
        with CallCounter() as counter:
            deployment.load_initial_image(trace)
        digest = _store_digest(deployment.store)
    else:
        from benchmarks.e2e.worker import run_round
        from benchmarks.e2e.workloads import WORKLOADS as E2E

        with CallCounter() as counter:
            result = run_round(E2E[cell], SEED, quick=False, traced=False)
        digest = result["digest"]
    calls = counter.by_package(src)
    return {"cell": cell, "python": PYTHON, "digest": digest,
            "calls": calls, "total": sum(calls.values())}


def measure(root: str) -> List[Dict[str, Any]]:
    """Every cell's row for the checkout at *root*, one process each."""
    src = os.path.join(root, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, root)), "PYTHONHASHSEED": "0"}
    for name in ("REPRO_TRACE_SAMPLE", "REPRO_METRICS_DIR", "REPRO_JOBS"):
        env.pop(name, None)
    rows = []
    for cell in CELLS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", cell, src],
            cwd=root, env=env, check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        rows.append(json.loads(out.strip().splitlines()[-1]))
        print(f"{cell}: {rows[-1]['total']} calls", file=sys.stderr)
    return rows


def check(path: str) -> int:
    """Recompute the newest run of *path* on this checkout: 0 when every
    count and digest is equal, 1 otherwise."""
    from repro.experiments.scale_matrix import load_trajectory

    newest = load_trajectory(path)["runs"][-1]
    recorded = {row["cell"]: row for row in newest["cells"]}
    versions = {row.get("python") for row in recorded.values()}
    if versions != {PYTHON}:
        print(f"{path}: run {newest['label']!r} was counted on Python {sorted(versions)}, "
              f"this is {PYTHON}", file=sys.stderr)
        return 2
    differences = []
    for row in measure(ROOT):
        old = recorded.get(row["cell"])
        if old is None:
            differences.append(f"{row['cell']}: not in run {newest['label']!r}")
            continue
        for field in ("digest", "total"):
            if row[field] != old[field]:
                differences.append(f"{row['cell']}: {field} {old[field]} -> {row[field]}")
        for package in sorted(set(row["calls"]) | set(old["calls"])):
            now, then = row["calls"].get(package, 0), old["calls"].get(package, 0)
            if now != then:
                differences.append(f"{row['cell']}: {package} {then} -> {now} calls")
    for line in differences:
        print(line)
    print(f"{len(differences)} differences from run {newest['label']!r}", file=sys.stderr)
    return 1 if differences else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        cell, src = argv[1:3]
        sys.stdout.write(json.dumps(measure_cell(cell, src)) + "\n")
        return 0
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    parser = argparse.ArgumentParser(prog="python benchmarks/callcount.py")
    parser.add_argument("--label", help="measure and append a run with this label")
    parser.add_argument("--root", default=ROOT, help="the checkout to measure")
    parser.add_argument("--check", action="store_true",
                        help="recompute the newest run, exit 1 on any difference")
    parser.add_argument("--out", default=BENCH_CALLS, help="the call ledger file")
    args = parser.parse_args(argv)
    if args.check == bool(args.label):
        parser.error("give exactly one of --label and --check")
    if args.check:
        return check(args.out)
    from repro.experiments.scale_matrix import record_trajectory

    record_trajectory(measure(os.path.abspath(args.root)), path=args.out, label=args.label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
