"""``python -m repro.lint`` — the one way to run the linter.

Every run parses the tree once and runs all four per-file rules
DET001–DET004 over it with one :class:`~repro.lint.rules.LintContext`.
Findings are computed once with suppressions off and split once into *reported* and
*suppressed* by the ``# lint: allow=RULE`` comments.  A comment that
names an unknown rule, or covers no finding of a rule it names, is a
*stale suppression* and fails the run like a finding does — a dead
comment would otherwise swallow the next real regression on its line.

Typical invocations::

    python -m repro.lint                       # lint src/repro (the CI gate)
    python -m repro.lint --json > lint.json    # the same run, as JSON
    python -m repro.lint --rules DET001,DET004 src/repro

``--rules`` runs only the named rules; allow comments are then audited
only for the rules that ran (an unknown rule id is always reported).

Exit codes are part of the contract (CI failure triage depends on them):

* ``0`` — clean: no reported finding and no stale suppression.
* ``1`` — violations: the *code* is at fault.
* ``2`` — tool error: the *linter run* is at fault (bad path, syntax
  error in a scanned file, unknown rule id, bad arguments).

The JSON report is versioned and schema-stable (CI archives it):

.. code-block:: json

    {
      "version": 3,
      "tool": "repro.lint",
      "roots": ["src/repro"],
      "files_scanned": 96,
      "findings": [{"rule": "...", "path": "...", "line": 1, "col": 1,
                    "message": "...", "hint": "..."}],
      "suppressed": [...],
      "stale_suppressions": ["src/x.py:3: allow=DET001 is stale — ..."],
      "summary": {"DET001": 0, "...": 0}
    }

``summary`` counts reported findings per rule, every rule present.  v3
drops v2's ``strict``, ``flow``, ``stale_baseline`` and each finding's
``symbol``, and adds ``stale_suppressions``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Collection, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import RULES_BY_ID, Finding, build_context, run_rules
from repro.lint.walker import LintToolError, ParsedModule, parse_tree

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_TOOL_ERROR = 2

REPORT_VERSION = 3

#: Every rule id, in report order.
RULE_IDS: Tuple[str, ...] = tuple(RULES_BY_ID)


@dataclass
class LintRun:
    """What one run found, what allow comments waived, and which were stale."""

    files_scanned: int
    findings: List[Finding]
    suppressed: List[Finding]
    stale: List[str]

    @property
    def failed(self) -> bool:
        return bool(self.findings or self.stale)


def run_lint(modules: Sequence[ParsedModule],
             rule_ids: Collection[str] = RULE_IDS) -> LintRun:
    """Run the rules in *rule_ids* over *modules* and apply allow comments once.

    A comment covers its own line and, when it is the only thing on its
    line, the line below.
    """
    context = build_context(modules)
    findings = run_rules(
        modules, [rule for rule_id, rule in RULES_BY_ID.items()
                  if rule_id in rule_ids], context)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    fired = {(f.path, f.rule, f.line) for f in findings}
    allowed: Set[Tuple[str, str, int]] = set()
    stale: List[str] = []
    for module in modules:
        for comment in module.allow_comments:
            for rule_id in comment.rules:
                covered = {(module.path, rule_id, line)
                           for line in comment.covers()}
                allowed |= covered
                where = f"{module.path}:{comment.lineno}: allow={rule_id}"
                if rule_id not in RULE_IDS:
                    stale.append(f"{where} names an unknown rule")
                elif rule_id in rule_ids and not covered & fired:
                    stale.append(f"{where} is stale — {rule_id} does not "
                                 f"fire on the line it covers")
    return LintRun(
        files_scanned=len(modules),
        findings=[f for f in findings if (f.path, f.rule, f.line) not in allowed],
        suppressed=[f for f in findings if (f.path, f.rule, f.line) in allowed],
        stale=stale,
    )


def render_text(run: LintRun) -> str:
    lines: List[str] = []
    for finding in run.findings:
        lines.append(f"{finding.path}:{finding.line}:{finding.col}: "
                     f"{finding.rule} {finding.message}")
        lines.append(f"    hint: {finding.hint}")
    lines.extend(run.stale)
    total = len(run.findings)
    lines.append(
        f"repro.lint: {run.files_scanned} files, {total} violation"
        f"{'s' if total != 1 else ''}, {len(run.suppressed)} suppressed, "
        f"{len(run.stale)} stale suppression{'s' if len(run.stale) != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(run: LintRun, roots: Sequence[str]) -> str:
    summary = dict.fromkeys(RULE_IDS, 0)
    for finding in run.findings:
        summary[finding.rule] += 1
    payload = {
        "version": REPORT_VERSION,
        "tool": "repro.lint",
        "roots": list(roots),
        "files_scanned": run.files_scanned,
        "findings": [asdict(f) for f in run.findings],
        "suppressed": [asdict(f) for f in run.suppressed],
        "stale_suppressions": run.stale,
        "summary": summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def default_roots() -> List[str]:
    """``src/repro`` relative to the current directory, if it exists."""
    candidate = os.path.join("src", "repro")
    if os.path.isdir(candidate):
        return [candidate]
    # Fall back to the installed package location (running from elsewhere).
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [package_dir]


def select_rules(spec: Optional[str]) -> FrozenSet[str]:
    """The rule ids a ``--rules`` value names (all of them when it is empty)."""
    if not spec:
        return frozenset(RULE_IDS)
    selected = frozenset(part.strip().upper() for part in spec.split(",")
                         if part.strip())
    unknown = sorted(selected.difference(RULE_IDS))
    if unknown:
        raise LintToolError(f"unknown rule {', '.join(unknown)}; known: "
                            f"{', '.join(sorted(RULE_IDS))}")
    return selected


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based determinism & invariant linter for this repro: "
                    "every rule and the allow-comment audit in one pass.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the version-3 JSON report instead of text",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    roots = list(args.paths) or default_roots()
    try:
        rule_ids = select_rules(args.rules)
        modules = parse_tree(roots)
    except LintToolError as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return EXIT_TOOL_ERROR
    run = run_lint(modules, rule_ids)
    print(render_json(run, roots) if args.as_json else render_text(run))
    return EXIT_VIOLATIONS if run.failed else EXIT_CLEAN
