"""Interprocedural dataflow passes layered on the per-file walker.

``run_flow`` builds the project call graph once, summarizes every
function, and runs the three whole-program passes:

* **DET004** — nondeterminism taint from sources to export sinks
  (:mod:`repro.lint.flow.taint`);
* **PAR001** / **PUR001** — parallel-purity of the executor's reachable
  set and argument-purity of memoized functions
  (:mod:`repro.lint.flow.purity`);
* **CACHE001** — ambient-input soundness of the runner cache fingerprint
  (:mod:`repro.lint.flow.cachekey`).

The passes share the per-file rules' :class:`~repro.lint.rules.LintContext`
(set typing included), and their findings go through the same one
``# lint: allow=RULE`` split in :func:`repro.lint.cli.run_lint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Sequence

from repro.lint.flow import cachekey, purity, taint
from repro.lint.flow.callgraph import FunctionIndex
from repro.lint.flow.summaries import build_summaries
from repro.lint.rules import Finding, LintContext
from repro.lint.walker import ParsedModule


@dataclass(frozen=True)
class FlowRule:
    """Descriptor for one whole-program rule (for reports and --rules)."""

    id: str
    title: str
    hint: str


FLOW_RULES: Sequence[FlowRule] = (
    FlowRule(
        id=taint.RULE_ID,
        title="no nondeterminism taint into result/export sinks",
        hint=taint.HINT,
    ),
    FlowRule(
        id=purity.PAR_RULE_ID,
        title="no module-state writes reachable from the parallel executor",
        hint=purity.PAR_HINT,
    ),
    FlowRule(
        id=purity.PUR_RULE_ID,
        title="memoized functions are pure in their arguments",
        hint=purity.PUR_HINT,
    ),
    FlowRule(
        id=cachekey.RULE_ID,
        title="cached cells read no ambient inputs outside the fingerprint",
        hint=cachekey.HINT,
    ),
)

FLOW_RULES_BY_ID: Dict[str, FlowRule] = {rule.id: rule for rule in FLOW_RULES}


def run_flow(modules: Sequence[ParsedModule], context: LintContext,
             wanted: Collection[str]) -> List[Finding]:
    """Every finding of the flow rules in *wanted* over *modules*, unsorted."""
    index = FunctionIndex(modules)
    summaries = build_summaries(index, context)
    findings: List[Finding] = []
    if taint.RULE_ID in wanted:
        findings.extend(taint.analyze_taint(index, summaries, context))
    if purity.PAR_RULE_ID in wanted:
        findings.extend(purity.check_parallel_purity(index, summaries))
    if purity.PUR_RULE_ID in wanted:
        findings.extend(purity.check_memo_purity(index, summaries))
    if cachekey.RULE_ID in wanted:
        findings.extend(cachekey.check_cache_keys(index, summaries))
    return findings
