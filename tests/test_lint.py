"""Tests for the repro.lint static-analysis suite.

Every rule gets fixture snippets that *must* trigger and snippets that
*must not* (false-positive guards), plus the one-pass default run, the
``# lint: allow=`` split and its audit, the JSON report schema, the
exit-code contract (0 clean / 1 violations / 2 tool error), and the env
knob table of ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import textwrap
from pathlib import Path

from repro.lint.cli import (
    EXIT_CLEAN,
    EXIT_TOOL_ERROR,
    EXIT_VIOLATIONS,
    main,
    render_json,
    render_text,
    run_lint,
)
from repro.lint.rules import RULES_BY_ID
from repro.lint.walker import parse_module
from tests.conftest import REPO_SRC


def lint(tmp_path, source, name="fixture.py", companions=()):
    """Per-file rules over one dedented fixture (plus companion files)."""
    modules = []
    for fname, fsource in list(companions) + [(name, source)]:
        path = tmp_path / fname
        path.write_text(textwrap.dedent(fsource))
        modules.append(parse_module(str(path)))
    findings = run_lint(modules, RULES_BY_ID).findings
    return [f for f in findings if f.path.endswith(name)]


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# DET001 — wall clock


def test_det001_flags_wall_clock(tmp_path):
    findings = lint(tmp_path, """
        import time
        from datetime import datetime

        def run():
            a = time.time()
            b = time.monotonic()
            c = datetime.now()
            return a, b, c
    """)
    assert [f.rule for f in findings] == ["DET001", "DET001", "DET001"]
    assert findings[0].line == 6  # fixture has a leading blank line


def test_det001_allows_perf_counter_and_sim_time(tmp_path):
    findings = lint(tmp_path, """
        import time

        def run(sim):
            started = time.perf_counter()
            now = sim.now
            return time.perf_counter() - started, now
    """)
    assert findings == []


def test_det001_resolves_import_aliases(tmp_path):
    findings = lint(tmp_path, """
        import time as clock
        from time import monotonic as mono

        def run():
            return clock.time() + mono()
    """)
    assert [f.rule for f in findings] == ["DET001", "DET001"]


def test_det001_ignores_unrelated_attributes(tmp_path):
    # A non-module object that happens to be named `time` must not resolve.
    findings = lint(tmp_path, """
        def run(metrics):
            return metrics.time()
    """)
    assert findings == []


def test_det001_inline_suppression(tmp_path):
    findings = lint(tmp_path, """
        import time

        def run():
            return time.time()  # lint: allow=DET001
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# DET002 — unseeded / module-global RNG


def test_det002_flags_global_rng_and_entropy(tmp_path):
    findings = lint(tmp_path, """
        import os
        import random
        import uuid

        def run():
            a = random.random()
            b = random.Random()
            c = os.urandom(8)
            d = uuid.uuid4()
            random.shuffle([1, 2])
            return a, b, c, d
    """)
    assert [f.rule for f in findings] == ["DET002"] * 5


def test_det002_allows_seeded_rng(tmp_path):
    findings = lint(tmp_path, """
        import random

        def run(seed):
            rng = random.Random(seed)
            other = random.Random(0)
            return rng.random() + other.expovariate(1.0)
    """)
    assert findings == []


def test_det002_flags_from_import(tmp_path):
    findings = lint(tmp_path, """
        from random import Random, randint

        def run():
            return Random(), randint(0, 3)
    """)
    assert [f.rule for f in findings] == ["DET002", "DET002"]


# ---------------------------------------------------------------------------
# DET003 — unordered iteration


def test_det003_flags_set_iteration(tmp_path):
    findings = lint(tmp_path, """
        def run(items):
            seen = set(items)
            out = []
            for item in seen:
                out.append(item)
            for item in {1, 2, 3}:
                out.append(item)
            return out, [x for x in set(items)], list(frozenset(items))
    """)
    assert [f.rule for f in findings] == ["DET003"] * 4


def test_det003_allows_sorted_and_order_free(tmp_path):
    findings = lint(tmp_path, """
        def run(items):
            seen = set(items)
            total = sum(seen)           # order-free consumer
            top = max(x for x in seen)  # order-free consumer
            bound = len(seen)
            ordered = sorted(seen)      # iterating sorted(), not the set
            for item in sorted(set(items)):
                total += item
            return total, top, bound, ordered, 3 in seen
    """)
    assert findings == []


def test_det003_membership_and_mutation_only_is_fine(tmp_path):
    findings = lint(tmp_path, """
        def run(ops):
            done = set()
            for op in ops:
                if op in done:
                    continue
                done.add(op)
            return len(done)
    """)
    assert findings == []


def test_det003_set_returning_annotation_crosses_modules(tmp_path):
    companions = [("helpers.py", """
        from typing import Set

        def up_nodes(names) -> Set[str]:
            return set(names)
    """)]
    findings = lint(tmp_path, """
        from helpers import up_nodes

        def run(names):
            return [n for n in up_nodes(names)]
    """, companions=companions)
    assert rules_of(findings) == ["DET003"]
    # ... and sorted() absorbs it
    clean = lint(tmp_path, """
        from helpers import up_nodes

        def run(names):
            return sorted(up_nodes(names))
    """, companions=companions)
    assert clean == []


def test_det003_reassigned_name_is_not_flagged(tmp_path):
    findings = lint(tmp_path, """
        def run(items, flag):
            values = set(items)
            if flag:
                values = sorted(items)
            return [v for v in values]
    """)
    assert findings == []


def test_det003_self_attribute_set(tmp_path):
    findings = lint(tmp_path, """
        class Tracker:
            def __init__(self):
                self.pending = set()

            def drain(self):
                return [p for p in self.pending]

            def drain_sorted(self):
                return sorted(self.pending)
    """)
    assert [f.rule for f in findings] == ["DET003"]


# ---------------------------------------------------------------------------
# DET004 — ambient input


def test_det004_flags_environ_attribute(tmp_path):
    findings = lint(tmp_path, """
        import os

        def run():
            user = os.environ.get("USER")
            raw = os.environb.get(b"HOME")
            return user, raw, dict(os.environ)
    """)
    assert [(f.rule, f.line) for f in findings] == [
        ("DET004", 5), ("DET004", 6), ("DET004", 7)]
    assert "os.environ" in findings[0].message


def test_det004_flags_environ_subscript(tmp_path):
    findings = lint(tmp_path, """
        import os

        def run(jobs):
            os.environ["REPRO_JOBS"] = str(jobs)
            return os.environ["REPRO_JOBS"]
    """)
    assert [(f.rule, f.line) for f in findings] == [("DET004", 5), ("DET004", 6)]


def test_det004_flags_getenv(tmp_path):
    findings = lint(tmp_path, """
        import os

        def run():
            return os.getenv("USER"), os.getenvb(b"HOME")
    """)
    assert [f.rule for f in findings] == ["DET004", "DET004"]
    assert [f.message.split()[2] for f in findings] == ["os.getenv", "os.getenvb"]


def test_det004_flags_from_os_import(tmp_path):
    findings = lint(tmp_path, """
        import os as system
        from os import environ, getenv as env

        def run():
            return environ.get("A"), env("B"), system.environ["C"]
    """)
    assert [f.rule for f in findings] == ["DET004"] * 3


def test_det004_ignores_what_is_not_the_environment(tmp_path):
    findings = lint(tmp_path, """
        import os

        def run(config, environ):
            return (config.environ.get("A"), environ["B"], os.path.join("a", "b"),
                    os.cpu_count(), config.id(3))
    """)
    assert findings == []


def test_det004_id_as_mapping_key_is_clean(tmp_path):
    findings = lint(tmp_path, """
        def run(records, memo):
            index_of = {id(r): i for i, r in enumerate(records)}
            first = {id(records[0]): 0}
            memo[id(records)] = 1
            memo.setdefault(id(first), [])
            memo.pop(id(first), None)
            return index_of[id(records[0])], memo.get(id(records))
    """)
    assert findings == []


def test_det004_id_as_value_is_flagged(tmp_path):
    findings = lint(tmp_path, """
        def run(records, memo, out):
            out.append({"ident": id(records)})
            memo.get("key", id(out))
            seen = id(memo) in memo
            return [id(r) for r in records], {r: id(r) for r in records}, seen, id(out) >> 4
    """)
    assert [(f.rule, f.line) for f in findings] == [
        ("DET004", 3), ("DET004", 4), ("DET004", 5), ("DET004", 6), ("DET004", 6),
        ("DET004", 6)]
    assert "id()" in findings[0].message


def test_det004_inline_suppression(tmp_path):
    findings = lint(tmp_path, """
        import os

        def jobs():
            return os.environ.get("REPRO_JOBS", "")  # lint: allow=DET004
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# whole-tree invariant: the shipped source stays clean


def test_repo_source_is_lint_clean(repo_lint_run):
    """The default run — every rule, then the allow-comment audit — over
    the shipped tree: no finding, no stale suppression."""
    assert not repo_lint_run.failed
    assert "0 violations" in render_text(repo_lint_run)


def test_repo_json_report(repo_lint_run):
    report = json.loads(render_json(repo_lint_run, [REPO_SRC]))
    assert report["version"] == 3
    assert set(report["summary"]) == {"DET001", "DET002", "DET003", "DET004"}
    assert set(report["summary"].values()) == {0}
    assert report["stale_suppressions"] == []
    # Every allow comment in the tree is an env knob read or written at
    # the program's edge (the table of docs/static-analysis.md).
    assert sorted((f["rule"], os.path.basename(f["path"]))
                  for f in report["suppressed"]) == [
        ("DET004", "__main__.py"), ("DET004", "executor.py"),
        ("DET004", "report.py"), ("DET004", "scale_matrix.py"),
        ("DET004", "scale_matrix.py"), ("DET004", "scale_matrix.py"),
        ("DET004", "spans.py")]


# ---------------------------------------------------------------------------
# the env knobs: the allowed DET004 sites are the documented table


def env_var_at(finding):
    """The variable an allowed ``os.environ`` site of the shipped tree names."""
    tree = ast.parse(Path(finding.path).read_text())
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    site = next(node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "environ"
                and (node.lineno, node.col_offset + 1) == (finding.line, finding.col))
    parent = parents[site]
    # os.environ[KEY] or os.environ.get(KEY, ...)
    key = parent.slice if isinstance(parent, ast.Subscript) else parents[parent].args[0]
    if isinstance(key, ast.Constant):
        return key.value
    relative = os.path.relpath(finding.path, os.path.dirname(REPO_SRC))
    module = importlib.import_module(relative[:-len(".py")].replace(os.sep, "."))
    return getattr(module, key.id)


def documented_knobs():
    text = (Path(REPO_SRC).parents[1] / "docs" / "static-analysis.md").read_text(
        encoding="utf-8")
    section = text.split("### DET004", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `\$(\w+)` \|", section, re.M)


def test_env_knob_table_is_the_allowed_reads(repo_lint_run):
    """An env knob that no row of the DET004 table names fails here, as
    it fails the lint run until its read carries an allow comment."""
    read = {env_var_at(f) for f in repo_lint_run.suppressed if f.rule == "DET004"}
    documented = documented_knobs()
    assert len(documented) == len(set(documented))
    assert set(documented) == read


# ---------------------------------------------------------------------------
# the default run: what each rule sees that no other one does

#: Caught by DET001 and DET003, not DET004: a wall-clock read and two
#: loops over a set-typed local, one of them feeding json.dump.
PER_FILE_FIXTURE = """
import json
import time


def export(rows, fh):
    started = time.time()
    s = set(rows)
    ordered = []
    for r in s:
        ordered.append(r)
    seen = set(rows)
    names = [n for n in seen]
    json.dump(ordered, fh)
    return started, names
"""

#: Caught by DET004 only: an environment read and an object id put into
#: an exported row, with no wall clock, entropy call or set loop.
AMBIENT_FIXTURE = """
import json
import os


def export(rows, fh):
    out = []
    for row in rows:
        out.append({"who": os.environ.get("USER"), "ident": id(row)})
    json.dump(out, fh)
"""


def default_run(tmp_path, capsys, source):
    """(exit code, [(rule, line)]) of ``python -m repro.lint FILE --json``."""
    target = tmp_path / "fixture.py"
    target.write_text(source)
    rc = main([str(target), "--json"])
    report = json.loads(capsys.readouterr().out)
    return rc, [(f["rule"], f["line"]) for f in report["findings"]]


def test_default_run_flags_what_only_per_file_rules_see(tmp_path, capsys):
    rc, found = default_run(tmp_path, capsys, PER_FILE_FIXTURE)
    assert rc == EXIT_VIOLATIONS
    assert found == [("DET001", 7), ("DET003", 10), ("DET003", 13)]


def test_default_run_flags_what_only_det004_sees(tmp_path, capsys):
    rc, found = default_run(tmp_path, capsys, AMBIENT_FIXTURE)
    assert rc == EXIT_VIOLATIONS
    assert found == [("DET004", 9), ("DET004", 9)]


# ---------------------------------------------------------------------------
# JSON report schema


VIOLATING = """
import time

def run():
    return time.time()
"""

CLEAN = """
import time

def run():
    return time.perf_counter()
"""


def test_json_report_schema(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent(VIOLATING))
    rc = main([str(target), "--json"])
    assert rc == EXIT_VIOLATIONS
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "version", "tool", "roots", "files_scanned", "findings",
        "suppressed", "stale_suppressions", "summary",
    }
    assert payload["version"] == 3
    assert payload["tool"] == "repro.lint"
    assert payload["files_scanned"] == 1
    assert set(payload["summary"]) == {"DET001", "DET002", "DET003", "DET004"}
    assert payload["summary"]["DET001"] == 1
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message", "hint"}
    assert payload["suppressed"] == []
    assert payload["stale_suppressions"] == []


# ---------------------------------------------------------------------------
# exit-code contract: violations (1) vs tool errors (2)


def test_exit_codes_distinguish_violations_from_tool_errors(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text(textwrap.dedent(CLEAN))
    dirty = tmp_path / "dirty.py"
    dirty.write_text(textwrap.dedent(VIOLATING))

    assert main([str(clean)]) == EXIT_CLEAN
    assert main([str(dirty)]) == EXIT_VIOLATIONS
    # missing path -> tool error
    assert main([str(tmp_path / "missing.py")]) == EXIT_TOOL_ERROR
    # syntax error in a scanned file -> tool error, reported on stderr
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert main([str(broken)]) == EXIT_TOOL_ERROR
    assert "cannot parse" in capsys.readouterr().err
    # unknown rule id -> tool error
    assert main([str(clean), "--rules", "NOPE99"]) == EXIT_TOOL_ERROR


def test_rule_selection(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent(VIOLATING))
    assert main([str(target), "--rules", "DET002"]) == EXIT_CLEAN
    assert main([str(target), "--rules", "det001"]) == EXIT_VIOLATIONS


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
        import os

        def export(rows):
            # lint: allow=DET004
            root = os.path.join("out", "rows")
            return root, len(rows)  # lint: allow=NOPE01
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
