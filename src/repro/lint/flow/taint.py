"""DET004 — interprocedural nondeterminism taint.

Sources: wall-clock reads, entropy, ``os.environ``, ``id()``, and
iteration over unordered sets — whatever DET003's detector
(:class:`repro.lint.rules.SetTyping`) calls set-typed, with the same
order-free-consumer exemption.  Taint propagates through assignments,
attributes, containers, f-strings, and *returns* of project functions
(a whole-program fixpoint over per-function return-taint).  Sinks are
the places results leave the process: JSONL/file writers, ``json.dump``,
time-series samples, metric updates, and the return value of a
``@cell_kind`` function (the cell's result row).

Deliberate conservatisms, chosen to keep the false-positive rate at
zero on this codebase:

* taint does **not** flow into callee parameters — only back out of
  returns.  A helper that archives its argument must be flagged at the
  call site's own sink, or caught by a later pass;
* storing under a tainted *key* does not taint the container (``id()``
  is routinely used as an identity-dict key);
* implicit flows (tainted branch conditions) are ignored — CACHE001
  covers the env-gated-behavior case.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.flow.callgraph import FunctionIndex, FunctionInfo, ResolvedCall
from repro.lint.flow.summaries import (
    _MUTATOR_METHODS,
    SOURCE_ORIGINS,
    FunctionSummary,
    resolve_env_key,
)
from repro.lint.rules import (
    SERIESISH,
    Finding,
    Iteration,
    LintContext,
    receiver_name,
)

RULE_ID = "DET004"
HINT = ("derive the value from the parameter bundle or sim-time, or move it "
        "to a measured/wall-clock-labelled field; suppress intentional "
        "provenance metadata with `# lint: allow=DET004` at the sink")

#: External calls whose result does not depend on argument *values* in a
#: nondeterminism-relevant way (cardinality/type predicates).
_SANITIZERS = frozenset({
    "len", "bool", "any", "all", "isinstance", "issubclass", "hasattr",
    "callable", "range", "type",
})

#: Metric update methods and the factory names that produce metric objects.
_METRIC_METHODS = frozenset({"inc", "observe"})
_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})


@dataclass
class _TaintState:
    """Flow-insensitive taint over one function's local names."""

    reasons: Dict[str, str]

    def get(self, name: str) -> Optional[str]:
        return self.reasons.get(name)

    def taint(self, name: str, reason: str) -> bool:
        if name in self.reasons:
            return False
        self.reasons[name] = reason
        return True


class _FunctionTaint:
    """Taint analysis of a single function body."""

    def __init__(self, summary: FunctionSummary, index: FunctionIndex,
                 summaries: Dict[str, FunctionSummary],
                 context: LintContext) -> None:
        self.summary = summary
        self.info = summary.info
        self.index = index
        self.summaries = summaries
        self.context = context
        self.sets = context.set_typing(self.info.module)
        self.imports = self.info.module.imports
        self.state = _TaintState(reasons={})
        #: call node -> resolved target/origin, from the summary pass.
        self.call_map: Dict[ast.Call, ResolvedCall] = {
            call.node: call for call in summary.calls
        }

    # -- expression taint ----------------------------------------------

    def expr_taint(self, expr: Optional[ast.expr]) -> Optional[str]:
        if expr is None or isinstance(expr, ast.Constant):
            return None
        if isinstance(expr, ast.Name):
            return self.state.get(expr.id)
        if isinstance(expr, ast.Call):
            return self._call_taint(expr)
        if isinstance(expr, ast.Attribute):
            return self.expr_taint(expr.value)
        if isinstance(expr, ast.Subscript):
            return self.expr_taint(expr.value)
        if isinstance(expr, ast.Starred):
            return self.expr_taint(expr.value)
        if isinstance(expr, (ast.Lambda, ast.FunctionDef)):
            return None
        if isinstance(expr, ast.Dict):
            for part in list(expr.keys) + list(expr.values):
                if part is not None:
                    reason = self.expr_taint(part)
                    if reason:
                        return reason
            return None
        # Everything else: tainted iff any child expression is tainted.
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                reason = self.expr_taint(child)
                if reason:
                    return reason
            elif isinstance(child, ast.comprehension):
                reason = self.expr_taint(child.iter)
                if reason:
                    return reason
        return None

    def _call_taint(self, node: ast.Call) -> Optional[str]:
        resolved = self.call_map.get(node)
        if resolved is not None and resolved.target is not None:
            callee = self.summaries.get(resolved.target.qualname)
            if callee is not None and callee.returns_taint:
                return f"{callee.returns_taint} via {resolved.target.name}()"
            return None
        origin = resolved.origin if resolved is not None else ""
        if origin in SOURCE_ORIGINS:
            return f"{origin}()"
        if origin in ("os.environ.get", "os.getenv"):
            key = resolve_env_key(node.args[0], self.info.module.module,
                                  self.imports, self.context) if node.args else None
            return f"os.environ[{key or '?'}]"
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name == "id":
                return "id()"
            if name in _SANITIZERS:
                return None
        # Unresolved/external call: propagate taint from arguments and the
        # receiver object (a method on a tainted object yields tainted data).
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            reason = self.expr_taint(arg)
            if reason:
                return reason
        if isinstance(node.func, ast.Attribute):
            return self.expr_taint(node.func.value)
        return None

    # -- statement pass ------------------------------------------------

    def _names_in(self, target: ast.expr) -> List[str]:
        return [leaf.id for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)]

    def propagate(self) -> Tuple[Optional[str], bool]:
        """One pass over the body; returns (return-taint, state-changed)."""
        changed = False
        returns: Optional[str] = None

        def set_order(iteration: Iteration) -> Optional[str]:
            what = self.sets.unordered_iteration(iteration)
            return f"iteration over {what}" if what else None

        def note_target(target: ast.expr, reason: str) -> None:
            nonlocal changed
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    note_target(element, reason)
                return
            if isinstance(target, ast.Name):
                changed |= self.state.taint(target.id, reason)
            elif isinstance(target, ast.Attribute):
                # x.field = tainted: the object x now carries taint.
                for name in self._names_in(target.value):
                    changed |= self.state.taint(name, reason)
            elif isinstance(target, ast.Subscript):
                # d[k] = tainted taints d; a tainted *key* alone does not.
                for name in self._names_in(target.value):
                    changed |= self.state.taint(name, reason)
            elif isinstance(target, ast.Starred):
                note_target(target.value, reason)

        own_returns = self._own_returns()
        for node in ast.walk(self.info.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node.value
                if value is None:
                    continue
                reason = self.expr_taint(value)
                if not reason:
                    continue
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    note_target(target, reason)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                reason = self.expr_taint(node.iter) or set_order(node)
                if reason:
                    note_target(node.target, reason)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is None:
                        continue
                    reason = self.expr_taint(item.context_expr)
                    if reason:
                        note_target(item.optional_vars, reason)
            elif isinstance(node, ast.NamedExpr):
                reason = self.expr_taint(node.value)
                if reason:
                    note_target(node.target, reason)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATOR_METHODS):
                # container.append(tainted) / d.update(tainted): the
                # receiver container now carries the taint.
                arguments = [*node.args, *(kw.value for kw in node.keywords)]
                for argument in arguments:
                    reason = self.expr_taint(argument)
                    if reason:
                        note_target(node.func.value, reason)
                        break
        for ret in own_returns:
            reason = self.expr_taint(ret.value)
            if reason:
                returns = reason
                break
        return returns, changed

    def _own_returns(self) -> List[ast.Return]:
        """Return statements of this function, not of nested defs."""
        returns: List[ast.Return] = []

        def scan(stmts: Sequence[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(stmt, ast.Return):
                    returns.append(stmt)
                    continue
                scan([child for child in ast.iter_child_nodes(stmt)
                      if isinstance(child, ast.stmt)])

        scan(self.info.node.body)
        return returns

    def run_to_fixpoint(self) -> Optional[str]:
        returns: Optional[str] = None
        for _ in range(20):
            returns, changed = self.propagate()
            if not changed:
                break
        return returns

    # -- sinks ---------------------------------------------------------

    def find_sinks(self) -> List[Tuple[ast.AST, str, str]]:
        """(node, taint reason, sink description) triples for this body."""
        sinks: List[Tuple[ast.AST, str, str]] = []
        for node in ast.walk(self.info.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = self.call_map.get(node)
            origin = resolved.origin if resolved is not None else ""
            if origin in ("json.dump", "json.dumps") and node.args:
                reason = self.expr_taint(node.args[0])
                if reason:
                    sinks.append((node, reason, f"{origin}()"))
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            receiver = receiver_name(node.func).lower()
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            if attr == "write" and arguments:
                reason = self.expr_taint(arguments[0])
                if reason:
                    sinks.append((node, reason, "a file/stream .write()"))
            elif attr in ("sample", "record") and arguments and any(
                    tag in receiver for tag in SERIESISH):
                for argument in arguments:
                    reason = self.expr_taint(argument)
                    if reason:
                        sinks.append(
                            (node, reason, f"a time-series .{attr}()"))
                        break
            elif arguments and (
                    attr in _METRIC_METHODS
                    or (attr == "set" and self._metric_receiver(node.func))):
                if attr in _METRIC_METHODS and not (
                        self._metric_receiver(node.func)
                        or any(tag in receiver for tag in
                               ("counter", "gauge", "metric", "hist"))):
                    continue
                reason = self.expr_taint(arguments[0])
                if reason:
                    sinks.append((node, reason, f"a metric .{attr}()"))
        if self.info.cell_kind is not None:
            for ret in self._own_returns():
                reason = self.expr_taint(ret.value)
                if reason:
                    sinks.append((
                        ret, reason,
                        f"the {self.info.cell_kind!r} cell's result row",
                    ))
        return sinks

    @staticmethod
    def _metric_receiver(func: ast.Attribute) -> bool:
        value = func.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            return value.func.attr in _METRIC_FACTORIES
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in _METRIC_FACTORIES
        return False


def analyze_taint(index: FunctionIndex,
                  summaries: Dict[str, FunctionSummary],
                  context: LintContext) -> List[Finding]:
    """Run the whole-program taint fixpoint; emit DET004 findings."""
    analyses: Dict[str, _FunctionTaint] = {}
    order = sorted(summaries)
    for qualname in order:
        analyses[qualname] = _FunctionTaint(
            summaries[qualname], index, summaries, context)
    # Whole-program fixpoint over per-function return taint.
    for _ in range(10):
        changed = False
        for qualname in order:
            analysis = analyses[qualname]
            analysis.state = _TaintState(reasons={})
            returns = analysis.run_to_fixpoint()
            summary = summaries[qualname]
            # Monotone: never retract taint once established.
            if returns is not None and summary.returns_taint is None:
                summary.returns_taint = returns
                changed = True
        if not changed:
            break
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str]] = set()
    for qualname in order:
        analysis = analyses[qualname]
        module = analysis.info.module
        for node, reason, sink in analysis.find_sinks():
            line = getattr(node, "lineno", 0)
            key = (module.path, line, sink)
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                rule=RULE_ID,
                path=module.path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                message=(f"nondeterministic data ({reason}) flows into "
                         f"{sink} in {analysis.info.qualname}"),
                hint=HINT,
            ))
    return findings
