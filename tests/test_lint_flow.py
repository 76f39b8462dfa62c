"""Tests for the repro.lint whole-program dataflow rules.

Each flow rule gets at least one fixture that *must* fire and one that
*must not*, plus what every run does after the rules: the one
``# lint: allow=`` split and the audit that fails the run on a stale or
unknown allow comment, and the JSON report of the shipped tree.
"""

from __future__ import annotations

import json
import os
import textwrap

from repro.lint.cli import EXIT_CLEAN, EXIT_VIOLATIONS, main, run_lint
from repro.lint.flow import FLOW_RULES_BY_ID
from repro.lint.walker import parse_module

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
    findings = run_lint(modules, rules or FLOW_RULES_BY_ID).findings
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


def test_det004_sees_set_typed_locals(tmp_path):
    # The loop runs over a local *bound* to a set, not over a set(...)
    # call: DET004 uses DET003's detector, so it sees what DET003 sees.
    findings = flow(tmp_path, """
        import json

        def export(rows, fh):
            s = set(rows)
            ordered = []
            for r in s:
                ordered.append(r)
            json.dump(ordered, fh)
    """, rules={"DET004"})
    assert [(f.rule, f.line) for f in findings] == [("DET004", 9)]
    assert "set-typed local 's'" in findings[0].message


def test_det004_order_free_consumer_is_clean(tmp_path):
    # DET003's exemption holds for DET004 too: sorted()/len() absorb order.
    findings = flow(tmp_path, """
        import json

        class Export:
            def __init__(self, rows):
                self.rows = set(rows)

            def export(self, fh):
                json.dump({"rows": sorted(r for r in self.rows),
                           "n": len([r for r in self.rows])}, fh)
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
# The shipped tree: clean under the flow rules alone, and its JSON report


def test_full_repo_flow_is_clean(capsys):
    flow_rules = ",".join(sorted(FLOW_RULES_BY_ID))
    assert main(["--rules", flow_rules, REPO_SRC]) == EXIT_CLEAN
    assert "0 violations" in capsys.readouterr().out


def test_repo_json_report(capsys):
    assert main(["--json", REPO_SRC]) == EXIT_CLEAN
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 3
    assert set(report["summary"].values()) == {0}
    assert report["stale_suppressions"] == []
    # The one allow comment in the tree: the run label written into
    # BENCH_scale.json is provenance metadata, never compared.
    assert [(f["rule"], os.path.basename(f["path"]))
            for f in report["suppressed"]] == [("DET004", "scale_matrix.py")]


# ---------------------------------------------------------------------------
# Allow comments: applied once a run, and every one must be load-bearing


def test_audit_passes_on_live_suppression(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent("""
        import time

        def run():
            return time.time()  # lint: allow=DET001
    """))
    assert main([str(path)]) == EXIT_CLEAN
    assert "1 suppressed, 0 stale suppressions" in capsys.readouterr().out


def test_audit_flags_stale_suppression(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent("""
        import time

        def run():
            return time.perf_counter()  # lint: allow=DET001
    """))
    assert main([str(path)]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "stale" in out and "DET001" in out


def test_audit_flags_unknown_rule(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text("x = 1  # lint: allow=ZZZ001\n")
    assert main([str(path)]) == EXIT_VIOLATIONS
    assert "unknown rule" in capsys.readouterr().out


def test_stale_and_unknown_allows_fail_the_default_run(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent("""
        import json

        def export(rows, fh):
            # lint: allow=DET004
            json.dump(sorted(rows), fh)
            return len(rows)  # lint: allow=NOPE01
    """))
    assert main([str(path), "--json"]) == EXIT_VIOLATIONS
    report = json.loads(capsys.readouterr().out)
    assert report["findings"] == []
    assert report["stale_suppressions"] == [
        f"{path}:5: allow=DET004 is stale — DET004 does not fire on the "
        f"line it covers",
        f"{path}:7: allow=NOPE01 names an unknown rule",
    ]
    # Under --rules only the rules that ran are audited; an unknown id
    # is wrong whatever runs.
    assert main([str(path), "--rules", "DET001"]) == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "allow=NOPE01" in out and "allow=DET004" not in out


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
    run = run_lint([module])
    assert [f.rule for f in run.findings] == ["DET001"]
    assert run.stale == []
