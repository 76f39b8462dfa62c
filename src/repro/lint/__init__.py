"""repro.lint — the determinism linter (``python -m repro.lint``).

One pass runs the four per-file rules DET001–DET004
(:mod:`repro.lint.rules`: wall clock, entropy, set order, ambient input)
over one parsed tree, then audits every ``# lint: allow=`` comment — see
:mod:`repro.lint.cli` and ``docs/static-analysis.md``.
"""

from repro.lint.cli import (
    EXIT_CLEAN,
    EXIT_TOOL_ERROR,
    EXIT_VIOLATIONS,
    RULE_IDS,
    main,
    run_lint,
)
from repro.lint.rules import Finding
from repro.lint.walker import LintToolError, parse_module, parse_tree

__all__ = [
    "EXIT_CLEAN",
    "EXIT_TOOL_ERROR",
    "EXIT_VIOLATIONS",
    "Finding",
    "LintToolError",
    "RULE_IDS",
    "main",
    "parse_module",
    "parse_tree",
    "run_lint",
]
