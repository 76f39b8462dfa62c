"""``python -m tests.mutants [ID ...]`` — score every guard against every mutant.

For the unpatched tree first and then for each mutant of
:mod:`tests.mutants.catalogue` (or only the ids given), the runner copies
the repository to a temporary directory, applies the mutant, and runs
every guard once:

* the project linter, once, split by rule — a rule's findings do not
  depend on which other rules run, so this is ``--rules ID`` for each id;
* tier-1 (less the linter's and the catalogue's own test files), split
  into one column per golden test, ``tests/test_model_based.py`` and the
  rest;
* every CI smoke step of ``.github/workflows/ci.yml``, job by job with the
  job's env (a matrix job runs its first combination, a step after a
  failed one is skipped as CI skips it), less the steps scored above:
  tier-1, the linters, pip, and the ``bench_micro`` runs;
* every ``bench_micro_*`` gate (a bench test that asserts something); a
  gate that fails is run again and counts only if it fails twice, since
  some gates time the host.

It prints a markdown report: the mutants, the matrix with each guard's
cost (lines it owns, tier-1 seconds, CI seconds), the guards whose every
catch a cheaper guard also makes, and the failing tests behind each
catch.  Progress goes to stderr.  A full run takes about an hour on two
cores; set-order and Hypothesis-driven catches are probabilistic.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import yaml

from tests.mutants.catalogue import MUTANTS, Mutant, apply

ROOT = Path(__file__).resolve().parents[2]

#: Golden file -> the test that compares against it.
GOLDENS = {
    "tests/data/blockop_streams.json": "tests/test_fslayer.py::test_block_op_stream_golden",
    "tests/data/churn_repair_health.jsonl":
        "tests/test_health.py::test_churn_cell_repair_gauges_match_committed_export",
    "tests/data/event_counts.json":
        "tests/test_event_counts_golden.py::test_event_counts_golden",
    "tests/data/figure_rows.json":
        "tests/test_experiments.py::TestRegistry::test_rows_and_report_golden",
    "tests/data/grid_cells.json": "tests/test_grid_golden.py::test_default_grid_golden",
    "tests/data/obs_artifacts.json": "tests/test_runner.py::test_obs_artifacts_golden",
}
MODEL = "tests/test_model_based.py"
REST = "rest of tier-1"
SUITES = (*GOLDENS, "model-based", REST)

#: Test files tier-1 runs that are not scored as tier-1: the linter's own
#: tests (the lint columns score the rules) and the catalogue check, which
#: fails on a patched tree by construction.
NOT_SCORED = ("tests/test_lint.py", "tests/test_mutant_catalogue.py")
TIER1_TIMEOUT, STEP_TIMEOUT = 1800, 900
WORKERS = max(1, min(4, os.cpu_count() or 1))


@dataclass
class Step:
    """One scored CI ``run:`` step."""

    job: str
    name: str
    run: str
    env: Dict[str, str]

    @property
    def column(self) -> str:
        return f"ci {self.job}: {self.name}"


@dataclass
class Outcome:
    """What every guard did on one tree: column -> failing tests / notes."""

    caught: Dict[str, List[str]] = field(default_factory=dict)
    skipped: Set[str] = field(default_factory=set)
    seconds: Dict[str, float] = field(default_factory=dict)   # per test / step
    lint_seconds: float = 0.0


# ---------------------------------------------------------------------------
# running things in a copy of the tree


def base_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return env


def run(cmd: Sequence[str], cwd: Path, env: Dict[str, str],
        timeout: int) -> Tuple[Optional[int], str, float]:
    """(exit code or None on timeout, stdout + stderr, seconds)."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=timeout)
        code, out = proc.returncode, proc.stdout + proc.stderr
    except subprocess.TimeoutExpired:
        code, out = None, f"timed out after {timeout} s"
    return code, out, time.perf_counter() - started


def copy_tree(dest: Path) -> Path:
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks",
        ".bench_build"))
    return tree


def nodeid(tree: Path, classname: str, name: str) -> str:
    """The pytest node id of one junit ``testcase``."""
    parts = classname.split(".") if classname else name.split(".")
    for end in range(len(parts), 0, -1):
        path = "/".join(parts[:end]) + ".py"
        if (tree / path).is_file():
            inner = parts[end:] + ([name] if classname else [])
            return "::".join([path, *inner])
    return f"{classname}::{name}"


def junit(tree: Path, report: Path) -> Tuple[Dict[str, str], Dict[str, float]]:
    """(failing node id -> failure text, seconds per node id) of a junit report."""
    failed: Dict[str, str] = {}
    seconds: Dict[str, float] = {}
    if not report.exists():
        return {"<no report>": ""}, seconds
    for case in ET.parse(report).getroot().iter("testcase"):
        test = nodeid(tree, case.get("classname", ""), case.get("name", ""))
        seconds[test] = float(case.get("time", 0) or 0)
        for child in case:
            if child.tag in ("failure", "error"):
                failed[test] = child.get("message", "") + (child.text or "")
    return failed, seconds


def pytest(tree: Path, report: Path, args: Sequence[str], env: Dict[str, str],
           timeout: int = TIER1_TIMEOUT) -> Tuple[Dict[str, str], Dict[str, float], float]:
    """(failing node id -> failure text, seconds per node id, seconds in all)."""
    code, _, elapsed = run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            f"--junitxml={report}", *args], tree, env, timeout)
    failed, seconds = junit(tree, report)
    if code not in (0, 1):  # interrupted, internal error, timeout
        failed[f"<pytest exit {code}>"] = ""
    return failed, seconds, elapsed


def belongs(test: str, prefix: str) -> bool:
    """Whether *test* is *prefix* (a test, a class or a file) or inside it;
    a failure of a whole file (a collection error) belongs to everything in it."""
    if test == prefix or test.startswith((prefix + "[", prefix + "::")):
        return True
    return test.endswith(".py") and prefix.startswith(test + "::")


def split_tier1(failed: Iterable[str]) -> Dict[str, List[str]]:
    """Failing tests per tier-1 column; a run that broke down fails them all."""
    columns: Dict[str, List[str]] = {name: [] for name in SUITES}
    for test in sorted(failed):
        owners = [name for name, prefix in GOLDENS.items() if belongs(test, prefix)]
        if belongs(test, MODEL):
            owners.append("model-based")
        if not owners or test.endswith(".py"):
            owners.append(REST)
        if test.startswith("<"):
            owners = list(SUITES)
        for owner in owners:
            columns[owner].append(test)
    return columns


# ---------------------------------------------------------------------------
# the guards


def lint_guard(tree: Path, outcome: Outcome) -> None:
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "repro.lint", "--json", "src/repro"],
                          cwd=tree, env=base_env(), capture_output=True, text=True,
                          timeout=STEP_TIMEOUT)
    outcome.lint_seconds = time.perf_counter() - started
    report = json.loads(proc.stdout)
    for rule, count in report["summary"].items():
        stale = [s for s in report["stale_suppressions"] if f"allow={rule}" in s]
        hits = [f"{f['path'].split('src/', 1)[-1]}:{f['line']}"
                for f in report["findings"] if f["rule"] == rule]
        outcome.caught[rule] = hits + stale if (count or stale) else []


def tier1_guards(tree: Path, scratch: Path, outcome: Outcome) -> None:
    # One Hypothesis seed for every run, so that two runs of the matrix
    # draw the same examples.
    args = ["--hypothesis-seed=0", *(f"--ignore={path}" for path in NOT_SCORED)]
    failed, seconds, _ = pytest(tree, scratch / "tier1.xml", args, base_env())
    outcome.seconds.update(seconds)
    outcome.caught.update(split_tier1(failed))


def ci_steps(tree: Path) -> List[Step]:
    workflow = yaml.safe_load((tree / ".github/workflows/ci.yml").read_text())
    steps: List[Step] = []
    for job, spec in workflow["jobs"].items():
        matrix = spec.get("strategy", {}).get("matrix", {})
        combo = {key: str(values[0]) for key, values in matrix.items()
                 if isinstance(values, list)}
        env = {key: re.sub(r"\$\{\{\s*matrix\.(\w+)\s*\}\}",
                           lambda m: combo[m.group(1)], str(value))
               for key, value in spec.get("env", {}).items()}
        for step in spec["steps"]:
            text = step.get("run", "")
            if not text or scored_elsewhere(text) or not holds(step.get("if"), combo):
                continue
            steps.append(Step(job, step.get("name", text.splitlines()[0]), text, env))
    return steps


def scored_elsewhere(text: str) -> bool:
    return ("pip install" in text or "repro.lint" in text or "bench_micro" in text
            or text.strip() == "python -m pytest -x -q"
            or text.strip().startswith(("ruff", "mypy")))


def holds(condition: Optional[str], combo: Dict[str, str]) -> bool:
    if not condition:
        return True
    match = re.fullmatch(r"\s*matrix\.([\w-]+)\s*(==|!=)\s*'([^']*)'\s*", condition)
    if match is None:
        raise ValueError(f"cannot evaluate CI condition {condition!r}")
    key, op, value = match.groups()
    return (combo.get(key) == value) == (op == "==")


def ci_guards(tree: Path, scratch: Path, outcome: Outcome) -> None:
    red: Set[str] = set()
    for step in ci_steps(tree):
        if step.job in red:
            outcome.skipped.add(step.column)
            outcome.caught[step.column] = []
            continue
        temp = scratch / f"runner-{step.job}"
        temp.mkdir(exist_ok=True)
        env = dict(base_env(), **step.env, RUNNER_TEMP=str(temp))
        bash = ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", step.run]
        code, out, seconds = run(bash, tree, env, STEP_TIMEOUT)
        outcome.seconds[step.column] = seconds
        if code == 0:
            outcome.caught[step.column] = []
        else:
            last = (out.strip().splitlines() or [""])[-1]
            outcome.caught[step.column] = [f"exit {code}: {last[:120]}"]
            red.add(step.job)


def bench_gates(tree: Path) -> List[str]:
    """Node ids of every bench_micro test that asserts something."""
    gates = []
    for path in sorted((tree / "benchmarks").glob("bench_micro_*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
                    and any(isinstance(n, ast.Assert) for n in ast.walk(node))):
                gates.append(f"benchmarks/{path.name}::{node.name}")
    return gates


def bench_guards(tree: Path, scratch: Path, outcome: Outcome) -> None:
    gates = bench_gates(tree)
    files = sorted({gate.split("::")[0] for gate in gates})
    args = ["--benchmark-disable", *files]
    failed, seconds, _ = pytest(tree, scratch / "bench.xml", args, base_env(), STEP_TIMEOUT)
    hit = {gate for gate in gates if any(belongs(test, gate) for test in failed)}
    if hit:  # some gates time the host: a catch must fail twice
        again, _, _ = pytest(tree, scratch / "bench2.xml",
                             ["--benchmark-disable", *sorted(hit)], base_env(), STEP_TIMEOUT)
        hit = {gate for gate in hit if any(belongs(test, gate) for test in again)}
    for gate in gates:
        outcome.seconds[gate] = sum(s for t, s in seconds.items() if belongs(t, gate))
        outcome.caught[gate] = sorted(t for t in failed if belongs(t, gate)) if gate in hit else []


def evaluate(mutant: Optional[Mutant]) -> Outcome:
    """Every guard's verdict on the tree with *mutant* applied (None: as is)."""
    label = mutant.id if mutant else "(unpatched)"
    print(f"[mutants] {label}: start", file=sys.stderr, flush=True)
    with tempfile.TemporaryDirectory(prefix="mutant-") as temp:
        scratch = Path(temp)
        tree = copy_tree(scratch)
        if mutant is not None:
            target = tree / mutant.path
            target.write_text(apply(mutant, target.read_text()))
        outcome = Outcome()
        lint_guard(tree, outcome)
        tier1_guards(tree, scratch, outcome)
        ci_guards(tree, scratch, outcome)
        bench_guards(tree, scratch, outcome)
    print(f"[mutants] {label}: {sum(bool(v) for v in outcome.caught.values())} "
          f"guards caught it", file=sys.stderr, flush=True)
    return outcome


# ---------------------------------------------------------------------------
# costs


def definition_lines(path: Path, name: str) -> int:
    """Lines of the def/class *name* (``Class::method`` allowed) in *path*."""
    tree = ast.parse(path.read_text())
    body: Sequence[ast.stmt] = tree.body
    node: Optional[ast.AST] = None
    for part in name.split("::"):
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == part), None)
        if node is None:
            # ``TestX = XMachine.TestCase``: the machine is the test.
            for stmt in body:
                if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Attribute)
                        and isinstance(stmt.value.value, ast.Name)
                        and any(getattr(t, "id", None) == part for t in stmt.targets)):
                    return definition_lines(path, stmt.value.value.id)
            return 0
        body = node.body
    return node.end_lineno - node.lineno + 1 if node is not None else 0


def test_lines(tree: Path, test: str) -> int:
    path, _, inner = test.split("[")[0].partition("::")
    if not inner or not (tree / path).is_file():
        return 0
    parts = inner.split("::")
    for end in range(len(parts), 0, -1):
        lines = definition_lines(tree / path, "::".join(parts[:end]))
        if lines:
            return lines
    return 0


def file_lines(tree: Path, path: str) -> int:
    target = tree / path
    return len(target.read_text().splitlines()) if target.is_file() else 0


@dataclass
class Cost:
    lines: int
    tier1_s: float
    ci_s: float
    note: str = ""


def rule_ownership(tree: Path) -> Dict[str, Tuple[int, str]]:
    """rule id -> (source lines that exist only for it, where)."""
    owned: Dict[str, Tuple[int, str]] = {}
    rules = tree / "src/repro/lint/rules.py"
    for node in ast.parse(rules.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
                        and getattr(stmt.targets[0], "id", "") == "id"):
                    owned[stmt.value.value] = (node.end_lineno - node.lineno + 1,
                                               f"rules.{node.name}")
    return owned


def costs(tree: Path, base: Outcome, lint_tests: Dict[str, float]) -> Dict[str, Cost]:
    seconds = base.seconds
    table: Dict[str, Cost] = {}
    owned = rule_ownership(tree)
    for rule, (lines, where) in owned.items():
        tests = [t for t in lint_tests
                 if t.split("::")[-1].startswith(f"test_{rule.lower()}_")]
        table[rule] = Cost(lines + sum(test_lines(tree, t) for t in tests),
                           sum(lint_tests[t] for t in tests), 0.0,
                           f"{where} + {len(tests)} tests")
    for name, prefix in GOLDENS.items():
        table[name] = Cost(test_lines(tree, prefix) + file_lines(tree, name),
                           sum(s for t, s in seconds.items() if belongs(t, prefix)), 0.0,
                           f"{prefix.split('::')[-1]} + the recorded file")
    tier1 = {t: s for t, s in seconds.items() if t.startswith("tests/")}
    model = {t: s for t, s in tier1.items() if belongs(t, MODEL)}
    rest = {t: s for t, s in tier1.items() if t not in model
            and not any(belongs(t, p) for p in GOLDENS.values())}
    table["model-based"] = Cost(file_lines(tree, MODEL), sum(model.values()), 0.0,
                                "per catch: the failing machine")
    rest_files = {t.split("::")[0] for t in rest}
    table[REST] = Cost(sum(file_lines(tree, f) for f in rest_files),
                       sum(rest.values()), 0.0, "per catch: the failing test")
    bench_in_ci = bench_runs_in_ci(tree)
    for step in ci_steps(tree):
        recorded = re.findall(r"(?:docs|tests/data)/[\w./-]+", step.run)
        table[step.column] = Cost(
            len(step.run.strip().splitlines()) + sum(file_lines(tree, f) for f in recorded),
            0.0, seconds.get(step.column, 0.0),
            f"the step + {', '.join(recorded)}" if recorded else "")
    for gate in bench_gates(tree):
        in_ci = bench_in_ci(gate)
        table[gate] = Cost(test_lines(tree, gate), 0.0,
                           seconds.get(gate, 0.0) if in_ci else 0.0,
                           "" if in_ci else "not run by CI")
    return table


def bench_runs_in_ci(tree: Path):
    """A predicate: does some CI step run this bench gate?"""
    workflow = yaml.safe_load((tree / ".github/workflows/ci.yml").read_text())
    selections = []
    for spec in workflow["jobs"].values():
        for step in spec["steps"]:
            for path, keys in re.findall(r"pytest (benchmarks/\S+)(?: [^\n]*?-k \"([^\"]+)\")?",
                                         step.get("run", "")):
                selections.append((path, [k.strip() for k in keys.split(" or ")] if keys else []))

    def runs(gate: str) -> bool:
        path, _, name = gate.partition("::")
        return any(path == p and (not keys or any(k in name for k in keys))
                   for p, keys in selections)
    return runs


def catch_cost(tree: Path, column: str, failing: List[str], table: Dict[str, Cost]) -> int:
    """What catching this mutant costs through *column*: the model machines
    and the rest of tier-1 are as cheap as their cheapest failing test."""
    if column in ("model-based", REST):
        lines = [test_lines(tree, t) for t in failing if not t.startswith("<")]
        lines = [n for n in lines if n] or [table[column].lines]
        return min(lines)
    return table[column].lines


# ---------------------------------------------------------------------------
# the report


def label(column: str) -> str:
    if column in GOLDENS:
        return "golden " + column.rsplit("/", 1)[-1]
    return column.replace("benchmarks/bench_micro_", "bench ").replace(".py::", ": ")


def strip(verdicts: Sequence[str]) -> str:
    return " ".join("".join(verdicts[i:i + 10]) for i in range(0, len(verdicts), 10))


def report(mutants: Sequence[Mutant], outcomes: Sequence[Outcome], base: Outcome,
           lint_tests: Dict[str, float]) -> str:
    tree = ROOT
    columns = list(base.caught)
    broken = [c for c in columns if base.caught[c]]
    table = costs(tree, base, lint_tests)
    out: List[str] = []
    out.append(f"{len(mutants)} mutants x {len(columns)} guards; "
               f"x = caught, . = missed, - = skipped (an earlier step of its CI job failed).")
    if broken:
        out.append(f"Failing on the unpatched tree, so not scored: {', '.join(broken)}.")
    out.append("\n| # | mutant | class | origin | file |\n|---|---|---|---|---|")
    for i, m in enumerate(mutants, 1):
        out.append(f"| {i} | `{m.id}` | {m.cls} | {m.origin} | `{m.path[4:]}` |")
    header = strip([str(i % 10) for i in range(1, len(mutants) + 1)])
    out.append("\n| guard | lines | tier-1 s | CI s | caught | "
               f"`{header}` | only it |\n|---|---|---|---|---|---|---|")
    caught_by: Dict[str, Set[int]] = {}
    verdicts_of: Dict[str, List[str]] = {}
    for column in columns:
        verdicts_of[column] = [
            "-" if column in outcome.skipped
            else "x" if outcome.caught.get(column) and column not in broken else "."
            for outcome in outcomes
        ]
        caught_by[column] = {i for i, v in enumerate(verdicts_of[column]) if v == "x"}
    for column in columns:
        others = set().union(*(caught_by[c] for c in columns if c != column))
        only = sorted(caught_by[column] - others)
        cost = table.get(column, Cost(0, 0.0, 0.0))
        marks = strip(["x" if i in caught_by[column] else "-" if v == "-" else "."
                       for i, v in enumerate(verdicts_of[column])])
        out.append(f"| {label(column)} | {cost.lines} | {cost.tier1_s:.2f} | {cost.ci_s:.0f} | "
                   f"{len(caught_by[column])} | `{marks}` "
                   f"| {', '.join(str(i + 1) for i in only) or '—'} |")
    out.append(f"\nCost notes: lines are the guard's own code and tests, and for a "
               f"golden also its recorded file; the lint rules share one whole-tree "
               f"run ({base.lint_seconds:.1f} s, CI's lint job).")
    for column in columns:
        if table.get(column) and table[column].note:
            out.append(f"- {label(column)}: {table[column].note}")
    out.append("\nFor each guard, each mutant it catches and the cheapest *other* "
               "guard that also does (lines of the catching code; a suite counts "
               "its cheapest failing test):\n")
    for column in columns:
        if not caught_by[column]:
            out.append(f"- **{label(column)}** catches nothing.")
            continue
        own = table[column].lines if column in table else 0
        parts, dominated = [], True
        for i in sorted(caught_by[column]):
            rivals = [(catch_cost(tree, c, outcomes[i].caught[c], table), c)
                      for c in columns if c != column and i in caught_by[c]]
            if not rivals:
                parts.append(f"{i + 1}: only it")
                dominated = False
                continue
            lines, rival = min(rivals)
            dominated &= lines < own
            parts.append(f"{i + 1}: {label(rival)} ({lines})")
        verdict = ("every catch also made by a cheaper guard" if dominated
                   else "some catch made by no cheaper guard")
        out.append(f"- **{label(column)}** ({own} lines; {verdict}): {'; '.join(parts)}")
    out.append("\n<details><summary>What failed, per mutant</summary>\n")
    for i, (m, outcome) in enumerate(zip(mutants, outcomes), 1):
        out.append(f"\n**{i}. {m.id}**\n")
        for column in columns:
            if i - 1 in caught_by[column]:
                shown = outcome.caught[column][:4]
                more = len(outcome.caught[column]) - len(shown)
                tail = f" (+{more})" if more > 0 else ""
                out.append(f"- {label(column)}: {'; '.join(shown)}{tail}")
        if not any(i - 1 in caught_by[c] for c in columns):
            out.append("- caught by no guard")
    out.append("\n</details>")
    return "\n".join(out)


def lint_test_seconds() -> Dict[str, float]:
    """Seconds per test of the files tier-1 runs but the columns do not."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as temp:
        tree = copy_tree(Path(temp))
        _, seconds, _ = pytest(tree, Path(temp) / "lint.xml", NOT_SCORED, base_env())
    return seconds


def main(argv: Sequence[str]) -> int:
    wanted = set(argv)
    unknown = wanted - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not wanted or m.id in wanted]
    base = evaluate(None)
    lint_tests = lint_test_seconds()
    with ThreadPoolExecutor(WORKERS) as pool:
        outcomes = list(pool.map(evaluate, mutants))
    print(report(mutants, outcomes, base, lint_tests))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
