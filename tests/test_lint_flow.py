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

from repro.lint.cli import EXIT_CLEAN, EXIT_VIOLATIONS, main, render_json, run_lint
from repro.lint.flow import FLOW_RULE_IDS
from repro.lint.walker import parse_module
from tests.conftest import REPO_SRC


def flow(tmp_path, source, name="fixture.py", companions=(), rules=None):
    """Run the flow passes over one dedented fixture plus companions;
    only findings anchored in *name*."""
    modules = []
    for fname, fsource in list(companions) + [(name, source)]:
        path = tmp_path / fname
        path.write_text(textwrap.dedent(fsource))
        modules.append(parse_module(str(path)))
    findings = run_lint(modules, rules or FLOW_RULE_IDS).findings
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


def test_det004_json_dump_is_not_a_lone_project_method(tmp_path):
    # ``json.dump`` names an import: the call graph must not fall back to
    # the one project method called ``dump``, which would hide the sink.
    findings = flow(tmp_path, """
        import json

        class Report:
            def dump(self):
                return []

        def export(x, fh):
            json.dump([id(x)], fh)
    """, rules={"DET004"})
    assert [(f.rule, f.line) for f in findings] == [("DET004", 9)]
    assert "id()" in findings[0].message


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
# The shipped tree: clean under the flow rules alone, and its JSON report


def test_full_repo_flow_is_clean(repo_lint_run):
    assert [f for f in repo_lint_run.findings if f.rule in FLOW_RULE_IDS] == []


def test_repo_json_report(repo_lint_run):
    report = json.loads(render_json(repo_lint_run, [REPO_SRC]))
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
