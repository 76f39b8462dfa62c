"""Tests for the repro.lint static-analysis suite.

Every rule family gets fixture snippets that *must* trigger and snippets
that *must not* (false-positive guards), plus the one-pass default run,
the JSON report schema, and the exit-code contract (0 clean / 1
violations / 2 tool error).
"""

from __future__ import annotations

import json
import textwrap

from repro.lint.cli import (
    EXIT_CLEAN,
    EXIT_TOOL_ERROR,
    EXIT_VIOLATIONS,
    main,
    render_text,
    run_lint,
)
from repro.lint.rules import RULES_BY_ID
from repro.lint.walker import parse_module


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
# whole-tree invariant: the shipped source stays clean


def test_repo_source_is_lint_clean(repo_lint_run):
    """The default run — every rule, then the allow-comment audit — over
    the shipped tree: no finding, no stale suppression."""
    assert not repo_lint_run.failed
    assert "0 violations" in render_text(repo_lint_run)


# ---------------------------------------------------------------------------
# the default run needs both rule families: neither one covers the other

#: Caught by the per-file rules only: a wall-clock read and a loop over a
#: set-typed local that reaches no sink (DET001, DET003); the loop that
#: feeds json.dump is DET003 and DET004.
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

#: Caught by DET004 only: an environment read and an object id reach
#: json.dump with no wall clock, entropy call or set loop on the way.
FLOW_FIXTURE = """
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
    assert found == [("DET001", 7), ("DET003", 10), ("DET003", 13),
                     ("DET004", 14)]


def test_default_run_flags_what_only_flow_rules_see(tmp_path, capsys):
    rc, found = default_run(tmp_path, capsys, FLOW_FIXTURE)
    assert rc == EXIT_VIOLATIONS
    assert found == [("DET004", 10)]


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
