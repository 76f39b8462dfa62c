"""Interprocedural dataflow passes layered on the per-file walker.

``run_flow`` builds the project call graph once, summarizes every
function, and runs the whole-program pass **DET004** — nondeterminism
taint from sources to export sinks (:mod:`repro.lint.flow.taint`).

The pass shares the per-file rules' :class:`~repro.lint.rules.LintContext`
(set typing included), and its findings go through the same one
``# lint: allow=RULE`` split in :func:`repro.lint.cli.run_lint`.
"""

from __future__ import annotations

from typing import Collection, List, Sequence, Tuple

from repro.lint.flow import taint
from repro.lint.flow.callgraph import FunctionIndex
from repro.lint.flow.summaries import build_summaries
from repro.lint.rules import Finding, LintContext
from repro.lint.walker import ParsedModule


#: The whole-program rule ids, in report order.
FLOW_RULE_IDS: Tuple[str, ...] = (taint.RULE_ID,)


def run_flow(modules: Sequence[ParsedModule], context: LintContext,
             wanted: Collection[str]) -> List[Finding]:
    """Every finding of the flow rules in *wanted* over *modules*, unsorted."""
    if taint.RULE_ID not in wanted:
        return []
    index = FunctionIndex(modules)
    return taint.analyze_taint(index, build_summaries(index), context)
