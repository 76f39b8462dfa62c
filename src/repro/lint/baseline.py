"""Checked-in baseline of grandfathered findings.

A baseline lets the linter land with strict gating while pre-existing
violations are burned down: known findings are *suppressed* (reported but
not fatal), anything new fails the run, and entries whose violation has
been fixed show up as *stale* so the file shrinks monotonically toward the
goal state — an empty ``entries`` list.

Fingerprints (v2) are ``RULE:qualified-symbol:sha1(normalized-line)[:8]``
— the enclosing def/class's dotted name plus the whitespace-normalized
offending line.  Moving a function to another file, reordering defs, or
reformatting indentation does not churn the baseline; editing the
offending line (or renaming its function) invalidates the entry, exactly
when a human should re-look.  A v1 file (path-anchored prints) is
refused with an error naming its version.  Duplicate identical findings
are handled as a multiset (each occurrence needs its own entry).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.lint.rules import Finding
from repro.lint.walker import LintToolError

BASELINE_VERSION = 2
DEFAULT_BASELINE = "lint-baseline.json"


def _normalized_hash(line: str) -> str:
    normalized = " ".join(line.split())
    return hashlib.sha1(normalized.encode("utf-8")).hexdigest()[:8]


def fingerprint(finding: Finding, source_line: str) -> str:
    """v2 identity of one finding: rule, enclosing symbol, line text.

    Falls back to the file path when the finding carries no symbol (a
    caller outside :func:`repro.lint.rules.run_rules`).
    """
    anchor = finding.symbol or finding.path.replace(os.sep, "/")
    return f"{finding.rule}:{anchor}:{_normalized_hash(source_line)}"


@dataclass
class Baseline:
    """The grandfathered-finding multiset plus its on-disk location."""

    path: str
    entries: Counter = field(default_factory=Counter)

    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Read *path*; a missing file is an empty baseline (the goal state)."""
        if not os.path.exists(path):
            return cls(path=path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise LintToolError(f"cannot read baseline {path}: {exc}") from exc
        if not isinstance(payload, dict) or "entries" not in payload:
            raise LintToolError(f"baseline {path} is not a lint baseline file")
        version = payload.get("version")
        if version != BASELINE_VERSION:
            raise LintToolError(
                f"baseline {path} has version {version!r}, expected "
                f"{BASELINE_VERSION}"
            )
        entries = payload["entries"]
        if not isinstance(entries, list) or not all(
            isinstance(e, str) for e in entries
        ):
            raise LintToolError(f"baseline {path}: entries must be strings")
        return cls(path=path, entries=Counter(entries))

    def save(self) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "comment": (
                "Grandfathered repro.lint findings. The goal state is an "
                "empty list: fix the code, not the baseline."
            ),
            "entries": sorted(self.entries.elements()),
        }
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def __len__(self) -> int:
        return sum(self.entries.values())


def partition(
    findings: Sequence[Finding],
    fingerprints: Sequence[str],
    baseline: Baseline,
) -> Tuple[List[Finding], List[Finding], List[str]]:
    """Split findings into (new, suppressed) and list stale baseline entries.

    *fingerprints* is parallel to *findings*.  Each baseline entry
    absorbs at most as many findings as its multiplicity; entries with
    leftover multiplicity are stale (the violation they recorded is gone).
    """
    remaining = Counter(baseline.entries)
    new: List[Finding] = []
    suppressed: List[Finding] = []
    for finding, print_ in zip(findings, fingerprints):
        if remaining.get(print_, 0) > 0:
            remaining[print_] -= 1
            suppressed.append(finding)
        else:
            new.append(finding)
    stale = sorted(remaining.elements())
    return new, suppressed, stale


def update(baseline: Baseline, fingerprints: Sequence[str]) -> Baseline:
    """A fresh baseline recording exactly the current findings."""
    return Baseline(path=baseline.path, entries=Counter(fingerprints))


def _source_line(finding: Finding, sources: Dict[str, List[str]]) -> str:
    lines = sources.get(finding.path, [])
    if 1 <= finding.line <= len(lines):
        return lines[finding.line - 1]
    return ""


def fingerprints_for(
    findings: Sequence[Finding], sources: Dict[str, List[str]]
) -> List[str]:
    """v2 fingerprints parallel to *findings*; *sources* maps path -> lines."""
    return [
        fingerprint(finding, _source_line(finding, sources))
        for finding in findings
    ]
