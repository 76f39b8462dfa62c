"""``python -m repro.lint`` — the CI gate and local pre-commit check.

Exit codes are part of the contract (CI failure triage depends on them):

* ``0`` — clean: no unbaselined findings (and, under ``--strict``, no
  stale baseline entries either).
* ``1`` — violations: the *code* is at fault.
* ``2`` — tool error: the *linter run* is at fault (bad path, syntax
  error in a scanned file, unreadable baseline, bad arguments).

Typical invocations::

    python -m repro.lint                       # lint src/repro
    python -m repro.lint --flow --strict       # CI gate, whole-program passes
    python -m repro.lint --json > lint.json    # machine-readable report
    python -m repro.lint --changed             # only files changed vs HEAD
    python -m repro.lint --changed origin/main # ... vs a ref
    python -m repro.lint --audit-suppressions  # find stale allow= comments
    python -m repro.lint --update-baseline     # grandfather current findings
    python -m repro.lint --rules DET001,CACHE001 src/repro

``--changed`` still *parses* the whole tree (the flow passes and the
cross-module context need every file) but only reports findings in the
changed set, so pre-commit runs stay quiet about pre-existing debt.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint import baseline as baseline_mod
from repro.lint.flow import FLOW_RULES_BY_ID, run_flow
from repro.lint.report import render_json, render_text
from repro.lint.rules import (
    ALL_RULES,
    RULES_BY_ID,
    Finding,
    Rule,
    build_context,
    run_rules,
)
from repro.lint.walker import LintToolError, ParsedModule, parse_tree

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_TOOL_ERROR = 2


def default_roots() -> List[str]:
    """``src/repro`` relative to the current directory, if it exists."""
    candidate = os.path.join("src", "repro")
    if os.path.isdir(candidate):
        return [candidate]
    # Fall back to the installed package location (running from elsewhere).
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [package_dir]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based determinism & invariant linter for this repro.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule ids to run (default: all); naming a "
             "flow rule (DET004/PAR001/PUR001/CACHE001) enables it even "
             "without --flow",
    )
    parser.add_argument(
        "--flow", action="store_true",
        help="also run the whole-program dataflow passes "
             "(DET004, PAR001, PUR001, CACHE001)",
    )
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="only report findings in files changed vs REF (default HEAD) "
             "plus untracked files; the whole tree is still parsed for "
             "cross-module context",
    )
    parser.add_argument(
        "--audit-suppressions", action="store_true",
        help="exit 1 on stale `# lint: allow=` comments whose rule no "
             "longer fires on the covered lines (runs every rule, "
             "including flow)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=baseline_mod.DEFAULT_BASELINE,
        help="baseline file of grandfathered findings "
             f"(default: {baseline_mod.DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline entirely (every finding is fatal)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to exactly the current findings and exit 0",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="CI mode: also fail on stale baseline entries",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress output on a fully clean run",
    )
    return parser


def _select_rules(spec: Optional[str],
                  flow: bool) -> Tuple[Tuple[Rule, ...], Set[str]]:
    """(per-file rules to run, flow rule ids to run) for the CLI options."""
    if not spec:
        flow_ids = set(FLOW_RULES_BY_ID) if flow else set()
        return ALL_RULES, flow_ids
    per_file: List[Rule] = []
    flow_ids = set()
    for rule_id in spec.split(","):
        rule_id = rule_id.strip().upper()
        if rule_id in RULES_BY_ID:
            per_file.append(RULES_BY_ID[rule_id])
        elif rule_id in FLOW_RULES_BY_ID:
            flow_ids.add(rule_id)
        else:
            known = sorted(RULES_BY_ID) + sorted(FLOW_RULES_BY_ID)
            raise LintToolError(
                f"unknown rule {rule_id!r}; known: {', '.join(known)}"
            )
    if flow and not flow_ids:
        flow_ids = set(FLOW_RULES_BY_ID)
    return tuple(per_file), flow_ids


def _git_lines(args: Sequence[str]) -> List[str]:
    try:
        completed = subprocess.run(
            ["git", *args], capture_output=True, text=True, check=True,
        )
    except FileNotFoundError as exc:
        raise LintToolError("--changed requires git on PATH") from exc
    except subprocess.CalledProcessError as exc:
        detail = (exc.stderr or "").strip() or f"exit {exc.returncode}"
        raise LintToolError(f"git {' '.join(args)} failed: {detail}") from exc
    return [line for line in completed.stdout.splitlines() if line.strip()]


def changed_paths(ref: str) -> Set[str]:
    """Absolute paths of files changed vs *ref*, plus untracked files."""
    listed = _git_lines(["diff", "--name-only", ref, "--"])
    listed += _git_lines(["ls-files", "--others", "--exclude-standard"])
    toplevel = _git_lines(["rev-parse", "--show-toplevel"])
    root = toplevel[0] if toplevel else os.getcwd()
    return {os.path.abspath(os.path.join(root, path)) for path in listed}


def _scope_to_changed(findings: Sequence[Finding],
                      changed: Set[str]) -> List[Finding]:
    return [f for f in findings if os.path.abspath(f.path) in changed]


def audit_suppressions(modules: Sequence[ParsedModule]) -> List[str]:
    """Stale-allow-comment descriptions; every rule (flow included) runs.

    A comment is stale when one of the rules it names no longer fires on
    any line it covers — the violation was fixed (or never existed), so
    the suppression is dead weight that would silently swallow a future
    regression.
    """
    context = build_context(modules)
    stashed = [(module, module.allows) for module in modules]
    try:
        for module, _ in stashed:
            module.allows = {}
        findings = run_rules(modules, ALL_RULES, context)
        findings += run_flow(modules, context)
    finally:
        for module, allows in stashed:
            module.allows = allows
    fired = {(f.path, f.rule, f.line) for f in findings}
    known_rules = set(RULES_BY_ID) | set(FLOW_RULES_BY_ID)
    stale: List[str] = []
    for module in modules:
        for comment in module.allow_comments:
            for rule_id in comment.rules:
                if rule_id not in known_rules:
                    stale.append(
                        f"{module.path}:{comment.lineno}: allow={rule_id} "
                        f"names an unknown rule"
                    )
                    continue
                if not any((module.path, rule_id, line) in fired
                           for line in comment.covers()):
                    stale.append(
                        f"{module.path}:{comment.lineno}: allow={rule_id} "
                        f"is stale — {rule_id} no longer fires here"
                    )
    return stale


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        roots = list(args.paths) or default_roots()
        per_file_rules, flow_ids = _select_rules(args.rules, args.flow)
        modules = parse_tree(roots)

        if args.audit_suppressions:
            stale_comments = audit_suppressions(modules)
            for entry in stale_comments:
                print(entry)
            total = len(stale_comments)
            if not (args.quiet and total == 0):
                print(
                    f"repro.lint: {len(modules)} files, {total} stale "
                    f"suppression comment{'s' if total != 1 else ''}"
                )
            return EXIT_VIOLATIONS if stale_comments else EXIT_CLEAN

        context = build_context(modules)
        findings = run_rules(modules, per_file_rules, context)
        if flow_ids:
            findings += run_flow(modules, context, flow_ids)
            findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

        if args.changed is not None:
            findings = _scope_to_changed(findings, changed_paths(args.changed))

        sources: Dict[str, List[str]] = {m.path: m.lines for m in modules}
        prints = baseline_mod.fingerprints_for(findings, sources)

        if args.no_baseline:
            base = baseline_mod.Baseline(path=args.baseline)
        else:
            base = baseline_mod.Baseline.load(args.baseline)

        if args.update_baseline:
            baseline_mod.update(base, prints).save()
            print(
                f"baseline {base.path}: recorded {len(prints)} finding"
                f"{'s' if len(prints) != 1 else ''}"
            )
            return EXIT_CLEAN

        new, suppressed, stale = baseline_mod.partition(findings, prints, base)
    except LintToolError as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return EXIT_TOOL_ERROR

    failed = bool(new) or (args.strict and bool(stale))
    if args.as_json:
        print(render_json(new, suppressed, stale, len(modules), roots,
                          strict=args.strict, flow=bool(flow_ids)))
    elif not (args.quiet and not failed and not suppressed and not stale):
        print(render_text(new, suppressed, stale, len(modules)))
    return EXIT_VIOLATIONS if failed else EXIT_CLEAN
