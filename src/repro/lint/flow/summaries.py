"""Per-function effect summaries for the flow passes.

For every function in the :class:`~repro.lint.flow.callgraph.FunctionIndex`
this pass records, from a single AST walk:

* **calls** — resolved call sites (the call-graph edges);
* **env_reads** — ``os.environ`` / ``os.getenv`` reads with the key
  resolved through module string constants where possible.

The taint pass (DET004) adds whether the function's return value can
carry nondeterminism.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.lint.flow.callgraph import FunctionIndex, FunctionInfo, ResolvedCall
from repro.lint.rules import LintContext, UnseededRandomRule, WallClockRule
from repro.lint.walker import resolve_call_target

#: Direct nondeterminism sources by dotted origin: every DET001 wall-clock
#: read plus the DET002 entropy sources.  ``id()`` is handled separately
#: (it is a builtin, not an import).
SOURCE_ORIGINS = frozenset(WallClockRule.BANNED) | frozenset(
    UnseededRandomRule.BANNED
) | frozenset(
    f"random.{name}" for name in UnseededRandomRule.GLOBAL_RANDOM_FNS
)

#: Methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "add", "append", "extend", "update", "pop", "popitem", "clear",
    "remove", "discard", "insert", "setdefault", "appendleft", "extendleft",
})

_ENV_GET_ORIGINS = frozenset({"os.environ.get", "os.getenv"})


@dataclass
class EnvRead:
    """One ``os.environ`` read; ``key`` is None when not statically known."""

    node: ast.AST
    key: Optional[str]


@dataclass
class FunctionSummary:
    """Everything the flow passes need to know about one function."""

    info: FunctionInfo
    calls: List[ResolvedCall] = field(default_factory=list)
    env_reads: List[EnvRead] = field(default_factory=list)
    #: Human-readable provenance when the return value can carry
    #: nondeterminism ("time.time() via _stamp()"); set by the taint pass.
    returns_taint: Optional[str] = None


def resolve_env_key(expr: ast.expr, module_name: str,
                    imports: Dict[str, str],
                    context: LintContext) -> Optional[str]:
    """The literal value of an env-var key expression, when resolvable."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.Name):
        local = context.module_constants.get(module_name, {})
        if expr.id in local:
            return local[expr.id]
        origin = imports.get(expr.id)
        if origin and "." in origin:
            origin_module, _, constant = origin.rpartition(".")
            return context.module_constants.get(origin_module, {}).get(constant)
        return None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        origin = imports.get(expr.value.id)
        if origin:
            return context.module_constants.get(origin, {}).get(expr.attr)
    return None


def summarize_function(info: FunctionInfo, index: FunctionIndex,
                       context: LintContext) -> FunctionSummary:
    module = info.module
    imports = module.imports
    summary = FunctionSummary(info=info, calls=index.calls_in(info))
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            if resolve_call_target(node.func, imports) in _ENV_GET_ORIGINS:
                key = resolve_env_key(node.args[0], module.module, imports,
                                      context) if node.args else None
                summary.env_reads.append(EnvRead(node=node, key=key))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if resolve_call_target(node.value, imports) == "os.environ":
                key = resolve_env_key(node.slice, module.module, imports, context)
                summary.env_reads.append(EnvRead(node=node, key=key))
    return summary


def build_summaries(index: FunctionIndex,
                    context: LintContext) -> Dict[str, FunctionSummary]:
    """Summaries for every indexed function, keyed by qualified name."""
    return {
        qualname: summarize_function(info, index, context)
        for qualname, info in index.by_qualname.items()
    }
