"""Tests for the repro.lint whole-program dataflow engine (--flow).

Each flow rule gets at least one fixture that *must* fire and one that
*must not*, plus the CLI surface that ships with the engine: baseline v2
fingerprints (line-number independent, v1 migration), ``--changed``
git-scoped runs, ``--audit-suppressions``, and a full-repo run that must
come back clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import textwrap

import pytest

from repro.lint.baseline import (
    Baseline,
    fingerprints_for,
    partition,
    update,
)
from repro.lint.cli import EXIT_CLEAN, EXIT_VIOLATIONS, main
from repro.lint.flow import run_flow
from repro.lint.rules import build_context, run_rules
from repro.lint.walker import LintToolError, parse_module

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_SRC = os.path.join(REPO_ROOT, "src", "repro")
COMMON_PY = os.path.join(REPO_SRC, "experiments", "common.py")


def flow(tmp_path, source, name="fixture.py", companions=(), rules=None,
         real_files=()):
    """Run the flow passes over one dedented fixture plus companions.

    *real_files* are absolute paths of genuine project modules to include
    in the index (e.g. ``common.py`` so ``cached()`` thunk calls resolve).
    Returns only findings anchored in *name*.
    """
    modules = [parse_module(path) for path in real_files]
    for fname, fsource in list(companions) + [(name, source)]:
        path = tmp_path / fname
        path.write_text(textwrap.dedent(fsource))
        modules.append(parse_module(str(path)))
    findings = run_flow(modules, rule_ids=set(rules) if rules else None)
    return [f for f in findings if f.path.endswith(name)]


# ---------------------------------------------------------------------------
# DET004 — nondeterminism taint into result/export sinks


def test_det004_cross_module_taint_into_json_dump(tmp_path):
    findings = flow(tmp_path, """
        import json

        from fixa import stamp

        def export(path):
            payload = {"at": stamp()}
            with open(path, "w") as handle:
                json.dump(payload, handle)
    """, companions=[("fixa.py", """
        import time

        def stamp():
            return time.time()
    """)], rules={"DET004"})
    assert [f.rule for f in findings] == ["DET004"]
    assert "json.dump" in findings[0].message
    assert "time.time" in findings[0].message


def test_det004_tainted_return_from_cell(tmp_path):
    findings = flow(tmp_path, """
        import time

        from repro.runner import cell_kind

        @cell_kind("fixture-det")
        def cell(params):
            return helper()

        def helper():
            return time.time()
    """, rules={"DET004"})
    assert [f.rule for f in findings] == ["DET004"]
    assert "cell" in findings[0].message


def test_det004_seeded_rng_is_clean(tmp_path):
    findings = flow(tmp_path, """
        import json
        import random

        def export(path, seed):
            rng = random.Random(seed)
            payload = {"v": rng.random(), "n": len([1, 2])}
            with open(path, "w") as handle:
                json.dump(payload, handle)
    """, rules={"DET004"})
    assert findings == []


def test_det004_inline_suppression(tmp_path):
    findings = flow(tmp_path, """
        import json
        import time

        def export(path):
            payload = {"at": time.time()}
            with open(path, "w") as handle:
                json.dump(payload, handle)  # lint: allow=DET004
    """, rules={"DET004"})
    assert findings == []


# ---------------------------------------------------------------------------
# PAR001 — no module-state writes reachable from the parallel executor


def test_par001_flags_global_mutation_under_parallelism(tmp_path):
    findings = flow(tmp_path, """
        from repro.runner import cell_kind

        RESULTS = []

        @cell_kind("fixture-par")
        def cell(params):
            record(params["x"])
            return params["x"]

        def record(value):
            RESULTS.append(value)
    """, rules={"PAR001"})
    assert [f.rule for f in findings] == ["PAR001"]
    assert "RESULTS" in findings[0].message
    assert "cell()" in findings[0].message and "record()" in findings[0].message


def test_par001_local_state_is_clean(tmp_path):
    findings = flow(tmp_path, """
        from repro.runner import cell_kind

        @cell_kind("fixture-par-ok")
        def cell(params):
            acc = []
            for value in params["xs"]:
                acc.append(value)
            return acc
    """, rules={"PAR001"})
    assert findings == []


def test_par001_unreachable_mutation_is_clean(tmp_path):
    # The write exists, but no cell ever reaches it: not a parallel hazard.
    findings = flow(tmp_path, """
        from repro.runner import cell_kind

        LOG = []

        @cell_kind("fixture-par-ok2")
        def cell(params):
            return params["x"]

        def offline_tool(value):
            LOG.append(value)
    """, rules={"PAR001"})
    assert findings == []


# ---------------------------------------------------------------------------
# PUR001 — memoized functions pure in their arguments


def test_pur001_flags_env_read_under_lru_cache(tmp_path):
    findings = flow(tmp_path, """
        import functools
        import os

        @functools.lru_cache(maxsize=None)
        def config():
            return os.environ.get("FIXTURE_KNOB", "0")
    """, rules={"PUR001"})
    assert [f.rule for f in findings] == ["PUR001"]
    assert "FIXTURE_KNOB" in findings[0].message


def test_pur001_flags_impure_cached_thunk(tmp_path):
    findings = flow(tmp_path, """
        import time

        from repro.experiments import common

        def lookup(key):
            return common.cached(key, lambda: time.time())
    """, rules={"PUR001"}, real_files=(COMMON_PY,))
    assert [f.rule for f in findings] == ["PUR001"]
    assert "time.time" in findings[0].message


def test_pur001_pure_memo_is_clean(tmp_path):
    findings = flow(tmp_path, """
        import functools

        from repro.experiments import common

        @functools.lru_cache(maxsize=None)
        def double(x):
            return x * 2

        def lookup(key, n):
            return common.cached(key, lambda: n * 3)
    """, rules={"PUR001"}, real_files=(COMMON_PY,))
    assert findings == []


# ---------------------------------------------------------------------------
# CACHE001 — cached cells read no ambient inputs outside the fingerprint


def test_cache001_flags_unfingerprinted_env_read(tmp_path):
    findings = flow(tmp_path, """
        import os

        from repro.runner import cell_kind

        @cell_kind("fixture-cache")
        def cell(params):
            return {"knob": os.environ.get("FIXTURE_KNOB", "1")}
    """, rules={"CACHE001"})
    assert [f.rule for f in findings] == ["CACHE001"]
    assert "FIXTURE_KNOB" in findings[0].message
    assert "fingerprint" in findings[0].message


def test_cache001_skips_uncached_cell_kinds(tmp_path):
    # scale/accel cells always run cache-disabled; their env reads are
    # outside the proof obligation.
    findings = flow(tmp_path, """
        import os

        from repro.runner import cell_kind

        @cell_kind("scale")
        def cell(params):
            return {"knob": os.environ.get("FIXTURE_KNOB", "1")}
    """, rules={"CACHE001"})
    assert findings == []


def test_cache001_sanctioned_env_is_clean(tmp_path):
    findings = flow(tmp_path, """
        import os

        from repro.runner import cell_kind

        @cell_kind("fixture-cache-ok")
        def cell(params):
            if os.environ.get("REPRO_DETSAN"):
                raise RuntimeError("sanitized")
            return params["x"]
    """, rules={"CACHE001"})
    assert findings == []


# ---------------------------------------------------------------------------
# Full-repo run: the tree itself must be flow-clean


def test_full_repo_flow_is_clean():
    assert main(["--flow", "--no-baseline", "--quiet", REPO_SRC]) == EXIT_CLEAN


def test_json_report_flow_flag(capsys):
    assert main(["--flow", "--no-baseline", "--json", REPO_SRC]) == EXIT_CLEAN
    report = json.loads(capsys.readouterr().out)
    assert report["flow"] is True
    assert report["summary"]["DET004"] == 0
    assert report["summary"]["PAR001"] == 0
    assert report["summary"]["PUR001"] == 0
    assert report["summary"]["CACHE001"] == 0


# ---------------------------------------------------------------------------
# Baseline v2 — line-number-independent fingerprints, v1 migration


VIOLATION_SRC = """
    import time

    def run():
        return time.time()
"""


def _lint_with_prints(directory, source):
    path = directory / "fixture.py"
    path.write_text(textwrap.dedent(source))
    module = parse_module(str(path))
    findings = run_rules([module], context=build_context([module]))
    sources = {module.path: module.lines}
    return findings, fingerprints_for(findings, sources), sources


def test_fingerprints_survive_line_shifts(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, prints_a, _ = _lint_with_prints(tmp_path / "a", VIOLATION_SRC)
    shifted = "# banner\n# comments\n\n" + textwrap.dedent(VIOLATION_SRC)
    _, prints_b, _ = _lint_with_prints(tmp_path / "b", shifted)
    assert prints_a and prints_a == prints_b


def test_fingerprint_anchors_on_symbol(tmp_path):
    findings, prints, _ = _lint_with_prints(tmp_path, VIOLATION_SRC)
    assert len(findings) == 1
    rule, symbol, digest = prints[0].split(":")
    assert rule == "DET001"
    assert symbol == "fixture.run"
    assert len(digest) == 8


def test_v1_baseline_is_refused_naming_its_version(tmp_path):
    """The repo's baseline is v2 and empty; the v1 loader path is gone."""
    findings, prints, _ = _lint_with_prints(tmp_path, VIOLATION_SRC)
    base_path = tmp_path / "baseline.json"
    base_path.write_text(json.dumps(
        {"version": 1, "entries": ["DET001:fixture.py:0123abcd"]}
    ))
    with pytest.raises(LintToolError, match="has version 1, expected 2"):
        Baseline.load(str(base_path))

    update(Baseline(path=str(base_path)), prints).save()
    payload = json.loads(base_path.read_text())
    assert payload["version"] == 2
    assert payload["entries"] == prints
    new, suppressed, stale = partition(findings, prints, Baseline.load(str(base_path)))
    assert (new, len(suppressed), stale) == ([], 1, [])


def test_unknown_baseline_version_is_tool_error(tmp_path):
    base_path = tmp_path / "baseline.json"
    base_path.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(LintToolError):
        Baseline.load(str(base_path))


def test_findings_carry_enclosing_symbol(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent("""
        import time

        class Sim:
            def tick(self):
                return time.time()
    """))
    module = parse_module(str(path))
    findings = run_rules([module], context=build_context([module]))
    assert [f.symbol for f in findings] == ["fixture.Sim.tick"]


# ---------------------------------------------------------------------------
# --changed: git-scoped runs


def _git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo),
         "-c", "user.email=lint@test", "-c", "user.name=lint",
         *args],
        check=True, capture_output=True,
    )


def test_changed_scopes_to_modified_files(tmp_path, monkeypatch, capsys):
    _git(tmp_path, "init", "-q")
    committed = tmp_path / "committed.py"
    committed.write_text("import time\n\n\ndef run():\n    return time.time()\n")
    _git(tmp_path, "add", "committed.py")
    _git(tmp_path, "commit", "-qm", "seed")
    monkeypatch.chdir(tmp_path)

    # Nothing changed vs HEAD: the committed violation is out of scope.
    assert main(["--changed", "--no-baseline", "."]) == EXIT_CLEAN

    # An untracked file with a violation is in scope.
    touched = tmp_path / "touched.py"
    touched.write_text("import time\n\n\ndef go():\n    return time.time()\n")
    capsys.readouterr()
    assert main(["--changed", "--no-baseline", "."]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "touched.py" in out
    assert "committed.py" not in out


# ---------------------------------------------------------------------------
# --audit-suppressions: stale allow= comments fail the run


def test_audit_passes_on_live_suppression(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent("""
        import time

        def run():
            return time.time()  # lint: allow=DET001
    """))
    assert main(["--audit-suppressions", "--quiet", str(path)]) == EXIT_CLEAN


def test_audit_flags_stale_suppression(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent("""
        import time

        def run():
            return time.perf_counter()  # lint: allow=DET001
    """))
    assert main(["--audit-suppressions", str(path)]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "stale" in out and "DET001" in out


def test_audit_flags_unknown_rule(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text("x = 1  # lint: allow=ZZZ001\n")
    assert main(["--audit-suppressions", str(path)]) == EXIT_VIOLATIONS
    assert "unknown rule" in capsys.readouterr().out


def test_docstring_mention_is_not_a_suppression(tmp_path):
    # The directive must sit in a real comment token; prose that merely
    # mentions the syntax neither suppresses nor counts for the audit.
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent('''
        """Docs: write `# lint: allow=DET001` above the offending line."""

        import time

        def run():
            return time.time()
    '''))
    module = parse_module(str(path))
    assert module.allow_comments == []
    findings = run_rules([module], context=build_context([module]))
    assert [f.rule for f in findings] == ["DET001"]
