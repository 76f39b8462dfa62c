"""Tests for the repro.lint static-analysis suite.

Every rule family gets fixture snippets that *must* trigger and snippets
that *must not* (false-positive guards), plus the one-pass default run,
the JSON report schema, and the exit-code contract (0 clean / 1
violations / 2 tool error).
"""

from __future__ import annotations

import json
import os
import textwrap

from repro.lint.cli import (
    EXIT_CLEAN,
    EXIT_TOOL_ERROR,
    EXIT_VIOLATIONS,
    main,
    run_lint,
)
from repro.lint.rules import RULES_BY_ID
from repro.lint.walker import parse_module

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "src", "repro")


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
# OBS001 — the event vocabulary


def test_obs001_unregistered_event_kind(tmp_path):
    findings = lint(tmp_path, """
        def run(tracer):
            tracer.emit("totally.unknown")
    """)
    assert [f.rule for f in findings] == ["OBS001"]
    assert "totally.unknown" in findings[0].message


def test_obs001_registered_kinds_pass(tmp_path):
    findings = lint(tmp_path, """
        from repro.obs.events import register_kind

        MY_KIND = register_kind("fixture.kind")

        def run(tracer):
            tracer.emit(MY_KIND)
            tracer.emit("fixture.kind")
    """)
    assert findings == []


def test_obs001_core_vocabulary_resolves_across_modules(tmp_path):
    # Constants imported from a scanned events module resolve to their
    # literal values; registered ones pass, unknown ones fail.
    companions = [("evmod.py", """
        GOOD = "lookup.hit"

        def register_kind(kind):
            return kind

        REGISTERED = register_kind("lookup.hit")
    """)]
    findings = lint(tmp_path, """
        from evmod import REGISTERED

        def run(tracer):
            tracer.emit(REGISTERED)
    """, companions=companions)
    assert findings == []


def test_obs001_skips_non_tracer_emit(tmp_path):
    findings = lint(tmp_path, """
        def run(signal_bus, now):
            signal_bus.emit("not.an.event", now)
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# OBS002 — sim-time-only time-series samples


def test_obs002_flags_perf_counter_samples(tmp_path):
    findings = lint(tmp_path, """
        import time

        def run(series, bank):
            series.sample(time.perf_counter(), 1.0)
            bank.sample("lookup.hit_ratio", time.perf_counter_ns(), 0.5)
            series.record(time.process_time(), 2.0)
    """)
    assert [f.rule for f in findings] == ["OBS002", "OBS002", "OBS002"]
    assert "time.perf_counter()" in findings[0].message


def test_obs002_flags_wall_clock_samples_too(tmp_path):
    findings = lint(tmp_path, """
        import time

        def run(monitor_series):
            monitor_series.sample(time.time(), 1.0)
    """)
    # DET001 also fires on the raw time.time() read; OBS002 adds the
    # series-specific diagnostic on top.
    assert rules_of(findings) == ["DET001", "OBS002"]


def test_obs002_allows_sim_time_and_measured_fields(tmp_path):
    findings = lint(tmp_path, """
        import time

        def run(sim, series, bank):
            series.sample(sim.now, 1.0)
            bank.sample("repair.backlog", sim.now, value=3.0)
            wall = time.perf_counter()  # measured field, not a sample
            return wall
    """)
    assert findings == []


def test_obs002_skips_non_series_receivers(tmp_path):
    findings = lint(tmp_path, """
        import time

        def run(profiler):
            profiler.sample(time.perf_counter())
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# KEY001 — hand-packed keys


def test_key001_flags_raw_packers_and_shifts(tmp_path):
    findings = lint(tmp_path, """
        import hashlib
        from repro.dht.keyspace import hash_to_key, key_from_bytes

        BLOCK_NUMBER_BYTES = 8

        def bad_keys(name, prefix, block, version):
            a = hash_to_key(name.encode())
            b = key_from_bytes(b"x" * 64)
            c = prefix | (block << 32) | version
            d = prefix | (block << (8 * BLOCK_NUMBER_BYTES))
            e = int.from_bytes(hashlib.sha512(name.encode()).digest(), "big")
            return a, b, c, d, e
    """)
    assert [f.rule for f in findings] == ["KEY001"] * 5


def test_key001_allows_sanctioned_api_and_size_constants(tmp_path):
    findings = lint(tmp_path, """
        import hashlib
        from repro.core.keys import compose_block_key, encode_path_key
        from repro.dht.consistent_hashing import hashed_key

        MEMO_MAX = 1 << 17
        BIG = 8 << 20

        def good_keys(volume, slots, block, version, name):
            prefix = encode_path_key(volume, slots)
            k1 = compose_block_key(prefix, block, version)
            k2 = hashed_key(name)
            sig = int.from_bytes(hashlib.sha256(name.encode()).digest()[:20], "big")
            return k1, k2, sig, MEMO_MAX, BIG
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# whole-tree invariant: the shipped source stays clean


def test_repo_source_is_lint_clean(capsys):
    """The default run — all ten rules, then the allow-comment audit — over
    the shipped tree: no finding, no stale suppression."""
    assert main([REPO_SRC]) == EXIT_CLEAN
    assert "0 violations" in capsys.readouterr().out


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
    assert set(payload["summary"]) == {
        "DET001", "DET002", "DET003", "DET004", "OBS001", "OBS002",
        "KEY001", "PAR001", "PUR001", "CACHE001",
    }
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
