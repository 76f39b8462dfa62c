"""Project-wide function index and conservative call resolution.

The flow engine needs to follow calls *across* files — something the
per-file rules deliberately avoid — so this module builds:

* a :class:`FunctionIndex` of every function/method in the scanned tree,
  keyed by dotted qualified name (``repro.core.system.Deployment.read``);
* per-function :class:`ResolvedCall` lists, resolving each call site to a
  project function, an external dotted origin (``time.time``), or nothing.

Resolution is *conservative in the false-positive direction*: a call is
linked to a project function only when the link is statically certain —
imports, module-local names, ``self``/``cls`` receivers, receivers whose
class is known from an annotation or a constructor assignment, and (as a
last resort) method names that are defined exactly once in the whole
project and are not generic container verbs.  Everything else stays
unresolved, which makes the downstream passes miss paths rather than
invent them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.lint.walker import ParsedModule, resolve_call_target

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Method names too generic to resolve by project-wide uniqueness: they
#: collide with builtin container/file verbs, so a bare ``obj.get(...)``
#: must never be linked to a project method by name alone.
_GENERIC_METHOD_NAMES = frozenset({
    "get", "put", "set", "add", "append", "extend", "update", "pop",
    "popitem", "clear", "remove", "discard", "insert", "setdefault",
    "keys", "values", "items", "copy", "sort", "reverse", "count",
    "index", "join", "split", "strip", "read", "write", "close", "open",
    "encode", "decode", "format", "emit", "inc", "observe", "record",
    "sample", "next", "send", "submit", "result", "cancel", "done",
    "load", "save", "run", "start", "stop", "finish", "reset",
})


@dataclass
class FunctionInfo:
    """One function or method in the scanned project."""

    qualname: str                   # repro.mod.Class.method / repro.mod.func
    module: ParsedModule
    node: FunctionNode
    class_qualname: Optional[str]   # enclosing class qualname, if a method
    decorators: Tuple[str, ...]     # resolved dotted origins / bare names
    cell_kind: Optional[str] = None  # @cell_kind("name") literal, if any
    returns_class: Optional[str] = None  # qualname of annotated return class

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    """One class: its methods plus resolvable base classes."""

    qualname: str
    module: ParsedModule
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    base_qualnames: Tuple[str, ...] = ()


@dataclass
class ResolvedCall:
    """One call site inside a function body."""

    node: ast.Call
    target: Optional[FunctionInfo]  # project function, when resolvable
    origin: str                     # dotted external origin ("time.time") or ""


def _decorator_origin(dec: ast.expr, imports: Dict[str, str]) -> Tuple[str, Optional[ast.Call]]:
    """(resolved-or-bare dotted name, call node if the decorator is a call)."""
    call = None
    if isinstance(dec, ast.Call):
        call = dec
        dec = dec.func
    parts: List[str] = []
    current: ast.expr = dec
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return "", call
    root = imports.get(current.id, current.id)
    parts.append(root)
    return ".".join(reversed(parts)), call


def _cell_kind_of(decorators: Sequence[ast.expr], imports: Dict[str, str]) -> Optional[str]:
    """The literal kind of a ``@cell_kind("...")`` decorator, if present."""
    for dec in decorators:
        origin, call = _decorator_origin(dec, imports)
        if call is None or not call.args:
            continue
        if origin == "cell_kind" or origin.endswith(".cell_kind"):
            arg = call.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
    return None


def _annotation_name(annotation: Optional[ast.expr]) -> Optional[str]:
    """The (possibly dotted) class name an annotation refers to, if simple.

    Handles ``Deployment``, ``"Deployment"`` (string form), and
    ``Optional[Deployment]``; anything fancier returns None.
    """
    node = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.strip()
        return name if name.isidentifier() else None
    if isinstance(node, ast.Subscript):
        base = node.value
        if isinstance(base, ast.Name) and base.id == "Optional":
            return _annotation_name(node.slice)
        if isinstance(base, ast.Attribute) and base.attr == "Optional":
            return _annotation_name(node.slice)
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        parts: List[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
            return ".".join(reversed(parts))
    return None


class FunctionIndex:
    """Every function, method, and class across the scanned modules."""

    def __init__(self, modules: Sequence[ParsedModule]) -> None:
        self.modules = list(modules)
        self.by_qualname: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: module dotted name -> {local symbol -> qualname} for top-level defs
        self.module_symbols: Dict[str, Dict[str, str]] = {}
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self.module_names = {m.module for m in modules}
        for module in modules:
            self._index_module(module)
        self._resolve_annotations()

    # ------------------------------------------------------------------
    # construction

    def _index_module(self, module: ParsedModule) -> None:
        imports = module.imports
        symbols: Dict[str, str] = {}
        self.module_symbols[module.module] = symbols

        def visit(node: ast.AST, scope: str, class_qual: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{scope}.{child.name}"
                    info = FunctionInfo(
                        qualname=qual,
                        module=module,
                        node=child,
                        class_qualname=class_qual,
                        decorators=tuple(
                            _decorator_origin(d, imports)[0]
                            for d in child.decorator_list
                        ),
                        cell_kind=_cell_kind_of(child.decorator_list, imports),
                    )
                    self.by_qualname[qual] = info
                    if class_qual is not None:
                        self.classes[class_qual].methods[child.name] = info
                        self.methods_by_name.setdefault(child.name, []).append(info)
                    elif scope == module.module:
                        symbols[child.name] = qual
                    visit(child, qual, None)
                elif isinstance(child, ast.ClassDef):
                    qual = f"{scope}.{child.name}"
                    bases = tuple(
                        name for name in (
                            _annotation_name(b) for b in child.bases
                        ) if name
                    )
                    self.classes[qual] = ClassInfo(
                        qualname=qual, module=module, node=child,
                        base_qualnames=bases,
                    )
                    if scope == module.module:
                        symbols[child.name] = qual
                    visit(child, qual, qual)
                else:
                    visit(child, scope, class_qual)

        visit(module.tree, module.module, None)

    def _resolve_annotations(self) -> None:
        for info in self.by_qualname.values():
            returns = _annotation_name(info.node.returns)
            if returns:
                cls = self.resolve_class_name(returns, info.module)
                if cls:
                    info.returns_class = cls.qualname
        for cls in self.classes.values():
            resolved: List[str] = []
            for base in cls.base_qualnames:
                base_cls = self.resolve_class_name(base, cls.module)
                if base_cls:
                    resolved.append(base_cls.qualname)
            cls.base_qualnames = tuple(resolved)

    # ------------------------------------------------------------------
    # name resolution

    def resolve_class_name(self, name: str, module: ParsedModule) -> Optional[ClassInfo]:
        """The ClassInfo *name* refers to inside *module*, if any."""
        imports = module.imports
        head, _, _ = name.partition(".")
        dotted = name
        if head in imports:
            dotted = imports[head] + name[len(head):]
        for candidate in (f"{module.module}.{name}", dotted, name):
            if candidate in self.classes:
                return self.classes[candidate]
        return None

    def _split_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        """Map a dotted origin onto a project function/method, if it is one."""
        if dotted in self.by_qualname:
            return self.by_qualname[dotted]
        # module.Class.method / module.Class (constructor)
        head, _, tail = dotted.rpartition(".")
        if head in self.classes:
            cls = self.classes[head]
            method = self.class_method(cls, tail)
            if method is not None:
                return method
        if dotted in self.classes:
            return self.class_method(self.classes[dotted], "__init__")
        return None

    def class_method(self, cls: Optional[ClassInfo], name: str) -> Optional[FunctionInfo]:
        """Look up *name* on *cls* or its resolvable project bases."""
        seen = set()
        while cls is not None and cls.qualname not in seen:
            seen.add(cls.qualname)
            if name in cls.methods:
                return cls.methods[name]
            nxt = None
            for base in cls.base_qualnames:
                if base in self.classes:
                    nxt = self.classes[base]
                    break
            cls = nxt
        return None

    def _local_types(self, info: FunctionInfo) -> Dict[str, str]:
        """Variable -> class-qualname map for one function body.

        Seeds: annotated parameters, plus simple assignments from a
        resolvable constructor or from a call whose return annotation
        names a project class.  Conflicting reassignments drop the entry.
        """
        types: Dict[str, str] = {}
        dropped = set()

        def note(name: str, qual: Optional[str]) -> None:
            if name in dropped:
                return
            if qual is None:
                if name in types:
                    del types[name]
                dropped.add(name)
            elif name in types and types[name] != qual:
                del types[name]
                dropped.add(name)
            else:
                types[name] = qual

        args = info.node.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            ann = _annotation_name(arg.annotation)
            if ann:
                cls = self.resolve_class_name(ann, info.module)
                if cls:
                    types[arg.arg] = cls.qualname
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            note(target.id, self._call_result_class(node.value, info))
        return types

    def _call_result_class(self, expr: ast.expr, info: FunctionInfo) -> Optional[str]:
        """Class qualname of *expr*'s value, when expr is a resolvable call."""
        if not isinstance(expr, ast.Call):
            return None
        target = self._resolve_call_func(expr.func, info, {})
        if target is None:
            return None
        if target.name == "__init__" and target.class_qualname:
            return target.class_qualname
        return target.returns_class

    def _resolve_call_func(self, func: ast.expr, info: FunctionInfo,
                           local_types: Dict[str, str]) -> Optional[FunctionInfo]:
        module = info.module
        imports = module.imports
        symbols = self.module_symbols.get(module.module, {})

        if isinstance(func, ast.Name):
            name = func.id
            if name in symbols:
                qual = symbols[name]
                if qual in self.by_qualname:
                    return self.by_qualname[qual]
                if qual in self.classes:
                    return self.class_method(self.classes[qual], "__init__")
            if name in imports:
                return self._split_dotted(imports[name])
            return None

        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        value = func.value

        # self.m() / cls.m(): the enclosing class (plus bases).
        if isinstance(value, ast.Name) and value.id in ("self", "cls"):
            if info.class_qualname:
                cls = self.classes.get(info.class_qualname)
                return self.class_method(cls, attr)
            return None

        # Chain rooted at a Name: alias.Class.method, module.func, var.method.
        parts: List[str] = [attr]
        current: ast.expr = value
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            root = current.id
            if root in local_types and len(parts) == 1:
                cls = self.classes.get(local_types[root])
                return self.class_method(cls, attr)
            origin_root = imports.get(root) or symbols.get(root)
            if origin_root:
                dotted = origin_root + "." + ".".join(reversed(parts))
                target = self._split_dotted(dotted)
                if target is not None:
                    return target
        elif isinstance(current, ast.Call):
            # method chained on a call result: resolve the inner call's class
            inner_class = self._call_result_class(current, info)
            if inner_class:
                return self.class_method(self.classes.get(inner_class), attr)

        # Last resort: the method name is defined exactly once project-wide
        # and is not a generic container verb.
        if attr not in _GENERIC_METHOD_NAMES:
            candidates = self.methods_by_name.get(attr, [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    # ------------------------------------------------------------------
    # per-function call extraction

    def calls_in(self, info: FunctionInfo) -> List[ResolvedCall]:
        """Every call site in *info*'s body, resolved where possible.

        Nested function/class bodies are included: the flow passes treat a
        closure's behavior as part of its definer (closures in this
        codebase are thunks executed by the function that builds them).
        The function's *own* decorators and argument defaults are excluded
        — those run at definition time, not when the function is called.
        """
        imports = info.module.imports
        local_types = self._local_types(info)
        calls: List[ResolvedCall] = []
        for stmt in info.node.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                target = self._resolve_call_func(node.func, info, local_types)
                origin = ""
                if target is None:
                    origin = resolve_call_target(node.func, imports)
                calls.append(ResolvedCall(node=node, target=target, origin=origin))
        return calls
