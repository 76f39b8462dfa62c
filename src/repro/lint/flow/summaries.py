"""Per-function effect summaries for the flow passes.

For every function in the :class:`~repro.lint.flow.callgraph.FunctionIndex`
this pass records, from a single AST walk:

* **calls** — resolved call sites (the call-graph edges);
* **env_reads** — ``os.environ`` / ``os.getenv`` reads with the key
  resolved through module string constants where possible;
* **source_calls** — direct nondeterminism sources (wall clock, entropy,
  ``id()``);
* **mutations** — writes to module-level mutable state: subscript stores,
  mutator-method calls (``.add``/``.update``/...), ``global`` rebinds,
  attribute stores on imported modules or project classes;
* **global_reads** — reads of module-level mutable containers (used by
  the memo-purity pass).

Names that are bound locally (parameters, assignments) shadow module
globals and are never reported — missing a mutation through an alias is
recoverable; flagging local state teaches people to sprinkle
suppressions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.flow.callgraph import FunctionIndex, FunctionInfo, ResolvedCall
from repro.lint.rules import (
    LintContext,
    UnseededRandomRule,
    WallClockRule,
    call_name,
)
from repro.lint.walker import resolve_call_target

#: Direct nondeterminism sources by dotted origin: every DET001 wall-clock
#: read plus the DET002 entropy sources.  ``id()`` is handled separately
#: (it is a builtin, not an import).
SOURCE_ORIGINS = frozenset(WallClockRule.BANNED) | frozenset(
    UnseededRandomRule.BANNED
) | frozenset(
    f"random.{name}" for name in UnseededRandomRule.GLOBAL_RANDOM_FNS
)

#: Constructors whose module-level result is a mutable container worth
#: tracking for parallel-purity.
_CONTAINER_CTORS = frozenset({
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque",
    "Counter", "WeakKeyDictionary", "WeakValueDictionary", "ChainMap",
})

#: Methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "add", "append", "extend", "update", "pop", "popitem", "clear",
    "remove", "discard", "insert", "setdefault", "appendleft", "extendleft",
})

_ENV_GET_ORIGINS = frozenset({"os.environ.get", "os.getenv"})

#: Ambient configuration env vars that are process-constant and either
#: content-neutral or ambient-fingerprinted in the runner cache key.
#: CACHE001 sanctions these for cached cells (see
#: :data:`repro.lint.flow.cachekey.SANCTIONED_ENV` for per-key reasons)
#: and PUR001 sanctions them for per-process memos — a single process
#: cannot observe two values of its own environment.
AMBIENT_SANCTIONED_ENV = frozenset({
    "REPRO_TRACE_SAMPLE",
    "REPRO_DETSAN",
    "REPRO_METRICS_DIR",
    "REPRO_RUN_CACHE",
    "REPRO_JOBS",
})


@dataclass
class EnvRead:
    """One ``os.environ`` read; ``key`` is None when not statically known."""

    node: ast.AST
    key: Optional[str]


@dataclass
class SourceCall:
    """One direct nondeterminism source call (``time.time()``, ``id()``...)."""

    node: ast.Call
    origin: str


@dataclass
class Mutation:
    """One write to module-level state."""

    node: ast.AST
    target: str   # dotted name, e.g. "repro.runner.cells.CELL_KINDS"
    verb: str     # "subscript store", ".update()", "rebind", ...


@dataclass
class FunctionSummary:
    """Everything the flow passes need to know about one function."""

    info: FunctionInfo
    calls: List[ResolvedCall] = field(default_factory=list)
    env_reads: List[EnvRead] = field(default_factory=list)
    source_calls: List[SourceCall] = field(default_factory=list)
    mutations: List[Mutation] = field(default_factory=list)
    global_reads: List[Tuple[ast.AST, str]] = field(default_factory=list)
    #: Human-readable provenance when the return value can carry
    #: nondeterminism ("time.time() via _stamp()"); set by the taint pass.
    returns_taint: Optional[str] = None


def mutable_globals(index: FunctionIndex) -> Dict[str, Set[str]]:
    """module dotted name -> names bound to mutable containers at top level."""
    table: Dict[str, Set[str]] = {}
    for module in index.modules:
        names: Set[str] = set()
        for node in module.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            if not _is_mutable_container(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        table[module.module] = names
    return table


def _is_mutable_container(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.SetComp, ast.DictComp)):
        return True
    return isinstance(value, ast.Call) and call_name(value) in _CONTAINER_CTORS


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


def _dotted_chain(expr: ast.expr, imports: Dict[str, str]) -> str:
    """Dotted origin of an attribute chain rooted at an imported name."""
    return resolve_call_target(expr, imports)


def _locally_bound(info: FunctionInfo) -> Tuple[Set[str], Set[str]]:
    """(names bound in the function, names declared ``global``)."""
    bound: Set[str] = set()
    declared: Set[str] = set()
    args = info.node.args
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)):
        bound.add(arg.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    for node in ast.walk(info.node):
        if isinstance(node, ast.Global):
            declared.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        bound.add(leaf.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    bound.add(leaf.id)
        elif isinstance(node, ast.comprehension):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    bound.add(leaf.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for leaf in ast.walk(item.optional_vars):
                        if isinstance(leaf, ast.Name):
                            bound.add(leaf.id)
    return bound, declared


def summarize_function(info: FunctionInfo, index: FunctionIndex,
                       context: LintContext,
                       mutable_table: Dict[str, Set[str]]) -> FunctionSummary:
    module = info.module
    imports = module.imports
    own_mutables = mutable_table.get(module.module, set())
    bound, declared = _locally_bound(info)
    summary = FunctionSummary(info=info, calls=index.calls_in(info))

    def refers_to_global(name: str) -> bool:
        return name in own_mutables and (name not in bound or name in declared)

    def container_target(expr: ast.expr) -> Optional[str]:
        """Dotted name of the module-level container *expr* denotes, if any."""
        if isinstance(expr, ast.Name):
            if refers_to_global(expr.id):
                return f"{module.module}.{expr.id}"
            origin = imports.get(expr.id, "")
            head, _, leaf = origin.rpartition(".")
            if head in index.module_names and leaf in mutable_table.get(head, set()):
                return origin
            return None
        if isinstance(expr, ast.Attribute):
            dotted = _dotted_chain(expr, imports)
            head, _, leaf = dotted.rpartition(".")
            if head in index.module_names and leaf in mutable_table.get(head, set()):
                return dotted
        return None

    def note_store_target(target: ast.expr, verb: str) -> None:
        if isinstance(target, ast.Name):
            if target.id in declared:
                summary.mutations.append(Mutation(
                    node=target, target=f"{module.module}.{target.id}",
                    verb=verb,
                ))
        elif isinstance(target, ast.Subscript):
            dotted = container_target(target.value)
            if dotted:
                summary.mutations.append(Mutation(
                    node=target, target=dotted, verb="subscript store",
                ))
        elif isinstance(target, ast.Attribute):
            value = target.value
            if isinstance(value, ast.Name) and value.id not in bound:
                origin = imports.get(value.id, "")
                if origin in index.module_names:
                    summary.mutations.append(Mutation(
                        node=target, target=f"{origin}.{target.attr}",
                        verb="module attribute store",
                    ))
                else:
                    cls = index.resolve_class_name(value.id, module)
                    if cls is not None:
                        summary.mutations.append(Mutation(
                            node=target,
                            target=f"{cls.qualname}.{target.attr}",
                            verb="class attribute store",
                        ))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                note_store_target(element, verb)

    for node in ast.walk(info.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            verb = "augmented rebind" if isinstance(node, ast.AugAssign) else "rebind"
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                note_store_target(target, verb)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                note_store_target(target, "delete")
        elif isinstance(node, ast.Call):
            func = node.func
            origin = resolve_call_target(func, imports)
            if isinstance(func, ast.Name) and func.id == "id" \
                    and func.id not in bound:
                summary.source_calls.append(SourceCall(node=node, origin="id"))
            elif origin in SOURCE_ORIGINS:
                summary.source_calls.append(SourceCall(node=node, origin=origin))
            elif origin in _ENV_GET_ORIGINS:
                key = resolve_env_key(node.args[0], module.module, imports,
                                      context) if node.args else None
                summary.env_reads.append(EnvRead(node=node, key=key))
            if isinstance(func, ast.Attribute) and func.attr in _MUTATOR_METHODS:
                dotted = container_target(func.value)
                if dotted:
                    summary.mutations.append(Mutation(
                        node=node, target=dotted, verb=f".{func.attr}()",
                    ))
        elif isinstance(node, ast.Subscript):
            if isinstance(node.ctx, ast.Load):
                dotted = _dotted_chain(node.value, imports)
                if dotted == "os.environ":
                    key = resolve_env_key(node.slice, module.module, imports,
                                          context)
                    summary.env_reads.append(EnvRead(node=node, key=key))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if refers_to_global(node.id):
                summary.global_reads.append(
                    (node, f"{module.module}.{node.id}")
                )
    return summary


def build_summaries(index: FunctionIndex,
                    context: LintContext) -> Dict[str, FunctionSummary]:
    """Summaries for every indexed function, keyed by qualified name."""
    mutable_table = mutable_globals(index)
    return {
        qualname: summarize_function(info, index, context, mutable_table)
        for qualname, info in index.by_qualname.items()
    }
