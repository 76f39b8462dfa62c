"""Which functions of ``src/repro`` do the project's runs never call?

Usage (from the repository root, ~10 min on a 2-vCPU host)::

    python benchmarks/traffic_audit.py

Every run in :data:`RUNS` executes in a process of its own under the
``sys.setprofile`` collector of ``benchmarks/callcount.py``, which records
the code object of every Python call.
The audit then lists each function defined under ``src/repro`` (found with
``ast``: functions, methods and nested functions; lambdas and generated
dataclass methods are not counted) whose code object no run entered, by
module, with its line count.  A name on that list is read by no run: it is
a candidate for deletion unless a test oracle, a CI step or a benchmark gate
needs it.  A name that a call in ``src/repro`` still spells (``x.name(...)``
or ``name(...)``, matched by name alone) is marked as having a *static
caller*: it is unreached by these runs, not dead, and deleting it breaks
the branch that calls it.

The runs are the CLI front doors (``python -m repro all|accel|scale|list``),
every benchmark workload at seed 11 through the worker module, untraced and
traced, the CI smokes' exports and the ``repro.obs`` CLIs over them, the
``repro.workloads`` CLI, the linter and the examples.  Nothing here runs in
tier-1 or in CI.
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

_FIG9_EXPORT = (
    "from repro.experiments.figures import FIGURES\n"
    "FIGURES['fig9'].rows(users=2, days=0.5, node_sizes=(12,), "
    "bandwidths_kbps=(1500.0,), systems=('d2', 'traditional'), n_windows=4, seed=7)\n"
)
_FIG13_EXPORT = (
    "from repro.experiments.figures import FIGURES\n"
    "FIGURES['fig13'].rows(users=3, days=0.5, node_sizes=(12, 24), n_windows=1, seed=7)\n"
)
_CHURN_EXPORT = (
    "from repro.experiments.churn_storm import run_churn_storm\n"
    "run_churn_storm(levels=('storm',), correlated=(0, 2), trials=1, users=2, "
    "days=0.25, n_nodes=16, seed=42, jobs=1)\n"
)
_WORKLOADS = ("fetch-latency", "read-replay", "churn-storm", "write-balance", "accel-shift")
_EXAMPLES = (
    "quickstart", "research_group_fs", "load_balancing_demo", "locality_analysis",
    "advanced_placement", "cooperative_web_cache",
)


def runs(tmp: str) -> List[Tuple[str, str, str, List[str], Dict[str, str]]]:
    """(label, kind, target, argv, extra environment) for every run, in order.

    ``kind`` is ``module`` (``python -m target argv``), ``path`` (a script)
    or ``code`` (``python -c target``).  Exports come before the CLIs that
    read them.
    """
    traces = os.path.join(tmp, "traces")
    metrics = os.path.join(tmp, "metrics")
    health = os.path.join(tmp, "health")
    trace = os.path.join(tmp, "harvard.jsonl")
    out: List[Tuple[str, str, str, List[str], Dict[str, str]]] = []
    for name in ("all", "accel", "scale", "list"):
        out.append((f"repro {name}", "module", "repro", [name], {}))
    for workload in _WORKLOADS:
        base = ["--workload", workload, "--seed", "11"]
        out.append((f"worker {workload}", "module", "benchmarks.e2e.worker", base, {}))
        out.append((f"worker {workload} --trace", "module", "benchmarks.e2e.worker",
                    base + ["--trace"], {}))
    out.append(("fig9 traced export", "code", _FIG9_EXPORT, [],
                {"REPRO_METRICS_DIR": traces, "REPRO_TRACE_SAMPLE": "1.0"}))
    out.append(("fig13 export", "code", _FIG13_EXPORT, [], {"REPRO_METRICS_DIR": metrics}))
    out.append(("churn storm export", "code", _CHURN_EXPORT, [], {"REPRO_METRICS_DIR": health}))
    report = os.path.join(traces, "runner_performance.json")
    fig13 = os.path.join(metrics, "fig13.json")
    out.append(("obs trace", "module", "repro.obs",
                ["trace", "--require-complete", os.path.join(traces, "runner_performance.trace*.jsonl")], {}))
    out.append(("obs health", "module", "repro.obs",
                ["health", os.path.join(health, "runner_churn.health*.jsonl"),
                 "--require-cycle", "replica-deficit", "--windows"], {}))
    out.append(("obs summary", "module", "repro.obs", ["summary", fig13, report], {}))
    out.append(("obs validate", "module", "repro.obs", ["validate", fig13, report], {}))
    out.append(("workloads harvard", "module", "repro.workloads",
                ["harvard", "--users", "4", "--days", "1", "-o", trace], {}))
    out.append(("workloads web", "module", "repro.workloads",
                ["web", "--users", "4", "--sites", "8", "--days", "1",
                 "-o", os.path.join(tmp, "web.jsonl")], {}))
    out.append(("workloads hp", "module", "repro.workloads",
                ["hp", "--apps", "2", "--days", "1", "-o", os.path.join(tmp, "hp.jsonl")], {}))
    out.append(("workloads stats", "module", "repro.workloads", ["stats", trace], {}))
    out.append(("lint --json", "module", "repro.lint", ["--json"], {}))
    for name in _EXAMPLES:
        out.append((f"example {name}", "path", os.path.join(ROOT, "examples", f"{name}.py"), [], {}))
    return out


def child(out_path: str, kind: str, target: str, argv: List[str]) -> None:
    """Run one target under the profiler and write the called (file, line) pairs."""
    import glob

    from benchmarks.callcount import CallCounter

    # Globs are expanded here, after the runs before this one wrote their files.
    argv = [m for a in argv for m in (sorted(glob.glob(a)) if "*" in a else [a])]
    counter = CallCounter()
    try:
        with counter:
            if kind == "module":
                sys.argv = [target] + argv
                runpy.run_module(target, run_name="__main__", alter_sys=True)
            elif kind == "path":
                sys.argv = [target] + argv
                runpy.run_path(target, run_name="__main__")
            else:
                exec(compile(target, "<audit>", "exec"), {"__name__": "__main__"})
    except SystemExit as exc:
        if exc.code not in (None, 0):
            print(f"exit status {exc.code}", file=sys.stderr)
    finally:
        called = sorted({(c.co_filename, c.co_firstlineno) for c in counter.counts
                         if c.co_filename.startswith(PACKAGE)})
        with open(out_path, "w") as fh:
            json.dump(called, fh)


def modules() -> Iterator[Tuple[str, str, ast.Module]]:
    """(module, absolute path, parsed tree) for every file of src/repro."""
    for folder, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), path)
                yield os.path.relpath(path, SRC)[:-3].replace(os.sep, "."), path, tree


def functions() -> Dict[Tuple[str, int], Tuple[str, str, int]]:
    """(absolute path, first line) -> (module, qualname, line count) for src/repro."""
    found: Dict[Tuple[str, int], Tuple[str, str, int]] = {}
    for module, path, tree in modules():

        def visit(node: ast.AST, prefix: str) -> None:
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([sub.lineno] + [d.lineno for d in sub.decorator_list])
                    qualname = prefix + sub.name
                    found[(path, first)] = (module, qualname,
                                            (sub.end_lineno or sub.lineno) - first + 1)
                    visit(sub, qualname + ".<locals>.")
                elif isinstance(sub, ast.ClassDef):
                    visit(sub, prefix + sub.name + ".")
                else:
                    visit(sub, prefix)

        visit(tree, "")
    return found


def static_callers() -> Dict[str, Set[str]]:
    """Simple function name -> the modules of src/repro holding a call that
    spells it, as ``name(...)`` or ``<expr>.name(...)``."""
    callers: Dict[str, Set[str]] = defaultdict(set)
    for module, _, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    callers[func.id].add(module)
                elif isinstance(func, ast.Attribute):
                    callers[func.attr].add(module)
    return callers


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        out_path, kind, target, *argv = sys.argv[2:]
        child(out_path, kind, target, argv)
        return 0
    called: Set[Tuple[str, int]] = set()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + ROOT
    env["PYTHONHASHSEED"] = "0"
    for name in ("REPRO_JOBS", "REPRO_METRICS_DIR",
                 "REPRO_TRACE_SAMPLE", "REPRO_SCALE_EXPORT_DIR", "REPRO_SCALE_LABEL"):
        env.pop(name, None)
    with tempfile.TemporaryDirectory() as tmp:
        # `repro scale` and `repro accel` append to the trajectory file: give
        # them a copy, so the audit leaves the checkout as it found it.
        env["REPRO_BENCH_SCALE"] = os.path.join(tmp, "BENCH_scale.json")
        shutil.copy(os.path.join(ROOT, "BENCH_scale.json"), env["REPRO_BENCH_SCALE"])
        plan = runs(tmp)
        for index, (label, kind, target, argv, extra) in enumerate(plan):
            out_path = os.path.join(tmp, f"called-{index}.json")
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", out_path, kind,
                 target, *argv],
                cwd=ROOT, env={**env, **extra}, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            status = "ok" if proc.returncode == 0 and "exit status" not in proc.stderr else "FAILED"
            print(f"[{index + 1}/{len(plan)}] {label}: {status} "
                  f"({time.perf_counter() - started:.0f}s)", file=sys.stderr)
            if status != "ok":
                print(proc.stderr[-2000:], file=sys.stderr)
            with open(out_path) as fh:
                called.update((path, line) for path, line in json.load(fh))

    defined = functions()
    callers = static_callers()
    by_module: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for key, (module, qualname, lines) in sorted(defined.items()):
        if key not in called:
            by_module[module].append((qualname, lines))
    uncalled = sum(len(v) for v in by_module.values())
    lines = sum(n for v in by_module.values() for _, n in v)
    print(f"{uncalled} of {len(defined)} functions in src/repro never called "
          f"({lines} lines) over {len(plan)} runs\n")
    print("| module | function | lines | static caller |")
    print("|---|---|---|---|")
    for module in sorted(by_module):
        for qualname, n in by_module[module]:
            spelled = sorted(callers.get(qualname.rsplit(".", 1)[-1], ()))
            caller = ", ".join(f"`{name}`" for name in spelled) if spelled else "none"
            print(f"| `{module}` | `{qualname}` | {n} | {caller} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
