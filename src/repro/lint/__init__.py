"""repro.lint — determinism & invariant enforcement, static and dynamic.

Two halves, one contract ("cells are bit-deterministic given their param
bundle"):

* the **linter** (``python -m repro.lint``): one pass runs the per-file
  rules DET001/DET002/DET003/OBS001/OBS002/KEY001 (:mod:`repro.lint.rules`)
  and the whole-program rules DET004 (taint), PAR001/PUR001
  (parallel/memo purity) and CACHE001 (cache-key soundness)
  (:mod:`repro.lint.flow`) over one parsed tree, then audits every
  ``# lint: allow=`` comment — see :mod:`repro.lint.cli` and
  ``docs/static-analysis.md``.
* the **runtime sanitizer** (``$REPRO_DETSAN=1``): patches wall-clock and
  unseeded-entropy entry points to raise during simulations and tests —
  see :mod:`repro.lint.detsan`.
"""

from repro.lint.cli import (
    EXIT_CLEAN,
    EXIT_TOOL_ERROR,
    EXIT_VIOLATIONS,
    RULE_IDS,
    main,
    run_lint,
)
from repro.lint.detsan import (
    DETSAN_ENV,
    DeterminismViolation,
    determinism_sanitizer,
    enabled_from_env,
    maybe_sanitize,
)
from repro.lint.rules import Finding
from repro.lint.walker import LintToolError, parse_module, parse_tree

__all__ = [
    "DETSAN_ENV",
    "DeterminismViolation",
    "EXIT_CLEAN",
    "EXIT_TOOL_ERROR",
    "EXIT_VIOLATIONS",
    "Finding",
    "LintToolError",
    "RULE_IDS",
    "determinism_sanitizer",
    "enabled_from_env",
    "main",
    "maybe_sanitize",
    "parse_module",
    "parse_tree",
    "run_lint",
]
