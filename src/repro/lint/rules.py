"""The invariant rules: determinism, observability, and key hygiene.

Six rule families, each a :class:`Rule` producing :class:`Finding`\\ s:

* **DET001** — no wall-clock reads (``time.time``, ``datetime.now``,
  ``time.monotonic``...) anywhere results can depend on them.
* **DET002** — no unseeded or module-global randomness (``random.random()``,
  bare ``random.Random()``, ``os.urandom``, ``uuid.uuid4``...).
* **DET003** — no iteration over ``set``/``frozenset`` values (or values of
  functions annotated to return sets) without ``sorted(...)``; set order is
  salted per process and silently breaks serial-vs-parallel equality.
* **OBS001** — the event vocabulary: every emitted event kind registered
  (:func:`repro.obs.events.register_kind` or the core constants).
* **OBS002** — time-series samples carry **sim-time**, never host-clock
  reads: no ``time.perf_counter()`` / ``time.process_time()`` (nor any
  DET001 wall-clock source) fed into ``series.sample(...)`` /
  ``bank.sample(...)``.
* **KEY001** — ring keys are built by ``KeyScheme``/``compose_block_key``/
  ``compose_block_run``/``hashed_key``, never hand-packed from shifts,
  digests, or raw bytes.

Rules resolve call targets through each module's import table and never
flag what they cannot resolve: a missed violation is recoverable (add a
pattern), a false positive teaches people to sprinkle suppressions.

Suppression: ``# lint: allow=DET001`` on (or directly above) the line.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.walker import ParsedModule, imported_names, resolve_call_target

# ---------------------------------------------------------------------------
# findings and shared context


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str
    #: Module-qualified enclosing def/class ("repro.dht.ring.Ring.lookup"),
    #: or the bare module name for module-level findings.  Baseline v2
    #: fingerprints hang off this, so moves/reformats don't churn them.
    symbol: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "symbol": self.symbol,
        }

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class LintContext:
    """Cross-module facts shared by all rule passes.

    Built once from every scanned module (plus, for the event vocabulary,
    whatever ``repro.obs.events`` declares), so rules can resolve names
    that cross file boundaries without importing any project code.
    """

    #: Registered event kinds: core constants + register_kind() literals.
    event_kinds: Set[str] = field(default_factory=set)
    #: dotted module name -> {constant name -> string value}
    module_constants: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: Names of functions annotated to return Set/FrozenSet/AbstractSet.
    set_returning: Set[str] = field(default_factory=set)


def _register_kind_literal(node: ast.Call) -> Optional[str]:
    """The literal kind of a ``register_kind("...")`` call, if any."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    if name != "register_kind" or not node.args:
        return None
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    return None


def _is_set_annotation(annotation: Optional[ast.expr]) -> bool:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet", "AbstractSet", "MutableSet")
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet",
                           "AbstractSet", "MutableSet")
    return False


def build_context(modules: Sequence[ParsedModule]) -> LintContext:
    context = LintContext()
    for module in modules:
        constants: Dict[str, str] = {}
        for node in module.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                constants[target.id] = value.value
            elif isinstance(value, ast.Call):
                literal = _register_kind_literal(value)
                if literal is not None:
                    constants[target.id] = literal
        if constants:
            context.module_constants[module.module] = constants
        if module.module == "repro.obs.events":
            # Every module-level string constant of the events module is part
            # of the core vocabulary (they are what BASE_EVENT_KINDS wraps).
            context.event_kinds.update(constants.values())
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                literal = _register_kind_literal(node)
                if literal is not None:
                    context.event_kinds.add(literal)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_set_annotation(node.returns):
                    context.set_returning.add(node.name)
    return context


def _parent_map(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


# ---------------------------------------------------------------------------
# rule framework


class Rule:
    """One named invariant; subclasses implement :meth:`check`."""

    id: str = ""
    title: str = ""
    hint: str = ""
    #: Dotted module names this rule never applies to (sanctioned low-level
    #: implementation sites).
    exempt_modules: Tuple[str, ...] = ()

    def applies_to(self, module: ParsedModule) -> bool:
        return module.module not in self.exempt_modules

    def check(self, module: ParsedModule, context: LintContext) -> List[Finding]:
        raise NotImplementedError

    def finding(self, module: ParsedModule, node: ast.AST, message: str,
                hint: Optional[str] = None) -> Finding:
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint if hint is None else hint,
        )


def _filter_allowed(module: ParsedModule, findings: Iterable[Finding]) -> List[Finding]:
    return [f for f in findings if not module.allowed(f.rule, f.line)]


def _symbol_spans(module: ParsedModule) -> List[Tuple[int, int, str]]:
    """(start, end, qualified name) for every def/class, innermost last."""
    spans: List[Tuple[int, int, str]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{scope}.{child.name}"
                end = getattr(child, "end_lineno", None) or child.lineno
                spans.append((child.lineno, end, qual))
                visit(child, qual)
            else:
                visit(child, scope)

    visit(module.tree, module.module)
    spans.sort(key=lambda span: (span[0], -span[1]))
    return spans


def annotate_symbols(modules: Sequence[ParsedModule],
                     findings: Iterable[Finding]) -> List[Finding]:
    """Fill each finding's ``symbol`` with its enclosing def/class.

    Findings outside any def/class get the module's dotted name; findings
    whose path was not scanned keep whatever symbol they carry.
    """
    spans_by_path: Dict[str, List[Tuple[int, int, str]]] = {}
    module_names: Dict[str, str] = {}
    for module in modules:
        spans_by_path[module.path] = _symbol_spans(module)
        module_names[module.path] = module.module
    annotated: List[Finding] = []
    for finding in findings:
        if finding.symbol or finding.path not in spans_by_path:
            annotated.append(finding)
            continue
        symbol = module_names[finding.path]
        for start, end, qual in spans_by_path[finding.path]:
            if start <= finding.line <= end:
                symbol = qual  # innermost match wins (sorted outer-first)
        annotated.append(dataclasses.replace(finding, symbol=symbol))
    return annotated


# ---------------------------------------------------------------------------
# DET001 — wall-clock reads


class WallClockRule(Rule):
    id = "DET001"
    title = "no wall-clock reads in deterministic code"
    hint = ("derive time from the simulator (sim.now) or pass timestamps in; "
            "for wall-clock *reporting* only, time.perf_counter() is allowed")

    BANNED = frozenset({
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    })

    def check(self, module: ParsedModule, context: LintContext) -> List[Finding]:
        imports = imported_names(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call_target(node.func, imports)
            if origin in self.BANNED:
                findings.append(self.finding(
                    module, node, f"wall-clock read {origin}() in deterministic code"
                ))
        return _filter_allowed(module, findings)


# ---------------------------------------------------------------------------
# DET002 — unseeded / module-global randomness


class UnseededRandomRule(Rule):
    id = "DET002"
    title = "no unseeded or module-global randomness"
    hint = ("use an explicitly seeded random.Random(seed) instance derived "
            "from the parameter bundle")

    #: Module-level functions of ``random`` that draw from (or mutate) the
    #: hidden process-global generator.
    GLOBAL_RANDOM_FNS = frozenset({
        "random", "uniform", "randint", "randrange", "choice", "choices",
        "shuffle", "sample", "expovariate", "gauss", "normalvariate",
        "lognormvariate", "betavariate", "gammavariate", "paretovariate",
        "vonmisesvariate", "weibullvariate", "triangular", "getrandbits",
        "randbytes", "binomialvariate", "seed",
    })

    BANNED = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})

    def check(self, module: ParsedModule, context: LintContext) -> List[Finding]:
        imports = imported_names(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call_target(node.func, imports)
            if not origin:
                continue
            if origin in self.BANNED or origin.startswith("secrets."):
                findings.append(self.finding(
                    module, node, f"nondeterministic entropy source {origin}()"
                ))
            elif origin == "random.SystemRandom":
                findings.append(self.finding(
                    module, node, "random.SystemRandom is OS entropy, never reproducible"
                ))
            elif origin == "random.Random" and not node.args and not node.keywords:
                findings.append(self.finding(
                    module, node,
                    "bare random.Random() seeds from OS entropy",
                ))
            elif (origin.startswith("random.")
                  and origin[len("random."):] in self.GLOBAL_RANDOM_FNS):
                findings.append(self.finding(
                    module, node,
                    f"module-global RNG call {origin}() shares hidden state "
                    "across the whole process",
                ))
        return _filter_allowed(module, findings)


# ---------------------------------------------------------------------------
# DET003 — unordered iteration


#: Consumers whose result does not depend on iteration order.
_ORDER_FREE_CALLS = frozenset({
    "sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset",
})

#: Iteration-forcing calls: their output *order* mirrors input order.
_ORDER_CAPTURING_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})


class _ScopeSets(ast.NodeVisitor):
    """Collect names that are definitely set-typed within one scope."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()
        self.other_names: Set[str] = set()
        self.set_attrs: Set[str] = set()   # self.<attr> assigned a set

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _note(self, target: ast.expr, value: Optional[ast.expr],
              annotation: Optional[ast.expr] = None) -> None:
        is_set = (value is not None and self._is_set_expr(value)) or (
            annotation is not None and _is_set_annotation(annotation)
        )
        if isinstance(target, ast.Name):
            (self.set_names if is_set else self.other_names).add(target.id)
        elif (isinstance(target, ast.Attribute)
              and isinstance(target.value, ast.Name)
              and target.value.id == "self" and is_set):
            self.set_attrs.add(target.attr)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._note(node.target, node.value, node.annotation)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            self.other_names.add(node.target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.target, ast.Name):
            self.other_names.add(node.target.id)
        self.generic_visit(node)

    # Nested functions get their own scope pass; don't mix their locals in.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


class UnorderedIterationRule(Rule):
    id = "DET003"
    title = "no iteration over unordered sets"
    hint = ("wrap the iterable in sorted(...) — set iteration order is salted "
            "per process and poisons results and cache keys")

    def check(self, module: ParsedModule, context: LintContext) -> List[Finding]:
        parents = _parent_map(module.tree)
        findings: List[Finding] = []

        # Scope tables: module body plus each function body.
        scopes: List[Tuple[ast.AST, _ScopeSets]] = []
        for scope_node in [module.tree] + [
            n for n in ast.walk(module.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]:
            table = _ScopeSets()
            body = scope_node.body if isinstance(scope_node, ast.Module) else scope_node.body
            for stmt in body:
                table.visit(stmt)
            scopes.append((scope_node, table))

        def enclosing_table(node: ast.AST) -> _ScopeSets:
            current: Optional[ast.AST] = node
            while current is not None:
                for scope_node, table in scopes:
                    if current is scope_node:
                        return table
                current = parents.get(current)
            return scopes[0][1]

        def class_set_attrs(node: ast.AST) -> Set[str]:
            """Set-typed ``self.<attr>`` names across the enclosing class."""
            current: Optional[ast.AST] = node
            while current is not None and not isinstance(current, ast.ClassDef):
                current = parents.get(current)
            if current is None:
                return set()
            attrs: Set[str] = set()
            for scope_node, table in scopes:
                inner: Optional[ast.AST] = scope_node
                while inner is not None:
                    if inner is current:
                        attrs.update(table.set_attrs)
                        break
                    inner = parents.get(inner)
            return attrs

        def is_set_valued(expr: ast.expr, at: ast.AST) -> Optional[str]:
            """A description when *expr* is statically set-typed, else None."""
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return "a set literal"
            if isinstance(expr, ast.Call):
                func = expr.func
                if isinstance(func, ast.Name):
                    if func.id in ("set", "frozenset"):
                        return f"{func.id}(...)"
                    if func.id in context.set_returning:
                        return f"{func.id}() (annotated -> Set)"
                elif isinstance(func, ast.Attribute):
                    if func.attr in context.set_returning:
                        return f"{func.attr}() (annotated -> Set)"
                return None
            if isinstance(expr, ast.Name):
                table = enclosing_table(at)
                if expr.id in table.set_names and expr.id not in table.other_names:
                    return f"set-typed local {expr.id!r}"
                return None
            if (isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"):
                if expr.attr in class_set_attrs(at):
                    return f"set-typed attribute self.{expr.attr}"
            return None

        def order_free_consumer(node: ast.AST) -> bool:
            """True when the nearest enclosing call absorbs iteration order."""
            current = parents.get(node)
            while current is not None:
                if isinstance(current, ast.Call):
                    func = current.func
                    name = func.id if isinstance(func, ast.Name) else (
                        func.attr if isinstance(func, ast.Attribute) else ""
                    )
                    return name in _ORDER_FREE_CALLS
                if isinstance(current, (ast.stmt, ast.Module)):
                    return False
                current = parents.get(current)
            return False

        def flag(expr: ast.expr, site: ast.AST, how: str, what: str) -> None:
            findings.append(self.finding(
                module, site,
                f"{how} iterates over {what} in unspecified order",
            ))

        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                what = is_set_valued(node.iter, node)
                if what:
                    flag(node.iter, node, "for loop", what)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                kind = {"ListComp": "list comprehension",
                        "GeneratorExp": "generator expression",
                        "DictComp": "dict comprehension"}[type(node).__name__]
                for gen in node.generators:
                    what = is_set_valued(gen.iter, node)
                    if what and not order_free_consumer(node):
                        flag(gen.iter, node, kind, what)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else ""
                )
                if name in _ORDER_CAPTURING_CALLS and node.args:
                    what = is_set_valued(node.args[0], node)
                    if what and not order_free_consumer(node):
                        flag(node.args[0], node, f"{name}(...)", what)
                elif name == "join" and node.args:
                    what = is_set_valued(node.args[0], node)
                    if what:
                        flag(node.args[0], node, "str.join", what)
        return _filter_allowed(module, findings)


# ---------------------------------------------------------------------------
# OBS001 — the event vocabulary


class ObservabilityRule(Rule):
    id = "OBS001"
    title = "emitted event kinds are registered"
    hint = "register event kinds via repro.obs.events.register_kind"

    #: Receivers whose ``.emit`` is an event-tracer emit; other ``.emit``
    #: methods (if any ever appear) are out of scope for this rule.
    _TRACERISH = ("tracer", "events")

    def _receiver_name(self, func: ast.Attribute) -> str:
        value = func.value
        if isinstance(value, ast.Attribute):
            return value.attr
        if isinstance(value, ast.Name):
            return value.id
        return ""

    def _resolve_kind(self, expr: ast.expr, module: ParsedModule,
                      imports: Dict[str, str], context: LintContext) -> Optional[str]:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, ast.Name):
            local = context.module_constants.get(module.module, {})
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

    def check(self, module: ParsedModule, context: LintContext) -> List[Finding]:
        imports = imported_names(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr != "emit" or not node.args:
                continue
            receiver = self._receiver_name(node.func).lower()
            if not any(tag in receiver for tag in self._TRACERISH):
                continue
            kind = self._resolve_kind(node.args[0], module, imports, context)
            if kind is not None and kind not in context.event_kinds:
                findings.append(self.finding(
                    module, node,
                    f"event kind {kind!r} emitted but never registered",
                    hint="declare it: KIND = register_kind(\"...\") "
                         "(repro.obs.events)",
                ))
        return _filter_allowed(module, findings)


# ---------------------------------------------------------------------------
# OBS002 — time-series samples carry sim-time


class TimeSeriesSimTimeRule(Rule):
    id = "OBS002"
    title = "time-series samples carry sim-time, not host-clock reads"
    hint = ("sample(sim.now, value) — a host-clock timestamp makes the "
            "window geometry (and every SLO evaluation) machine-dependent; "
            "time.perf_counter belongs in measured wall-clock fields only")

    #: Receivers whose ``.sample``/``.record`` is a time-series write;
    #: other samplers (if any ever appear) are out of scope.
    _SERIESISH = ("series", "bank", "timeseries", "health", "monitor")

    #: Every DET001 wall-clock source, plus the process timers DET001
    #: sanctions for wall-clock *reporting* — none of them may become a
    #: sample timestamp or value.
    BANNED = WallClockRule.BANNED | frozenset({
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
    })

    def _receiver_name(self, func: ast.Attribute) -> str:
        value = func.value
        if isinstance(value, ast.Attribute):
            return value.attr
        if isinstance(value, ast.Name):
            return value.id
        return ""

    def check(self, module: ParsedModule, context: LintContext) -> List[Finding]:
        imports = imported_names(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in ("sample", "record"):
                continue
            receiver = self._receiver_name(node.func).lower()
            if not any(tag in receiver for tag in self._SERIESISH):
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                for inner in ast.walk(argument):
                    if not isinstance(inner, ast.Call):
                        continue
                    origin = resolve_call_target(inner.func, imports)
                    if origin in self.BANNED:
                        findings.append(self.finding(
                            module, inner,
                            f"host-clock read {origin}() fed into a "
                            f"time-series .{node.func.attr}()",
                        ))
        return _filter_allowed(module, findings)


# ---------------------------------------------------------------------------
# KEY001 — no hand-packed ring keys


class KeyCompositionRule(Rule):
    id = "KEY001"
    title = "ring keys go through KeyScheme/compose_block_key"
    hint = ("build keys with KeyScheme implementations, encode_path_key/"
            "compose_block_key/compose_block_run, or hashed_key — never by "
            "hand-packing bytes or bit-shifting fields")

    exempt_modules = (
        "repro.core.keys",
        "repro.dht.keyspace",
        "repro.dht.consistent_hashing",
    )

    _RAW_PACKERS = frozenset({"key_from_bytes", "hash_to_key"})
    #: Shifting a *computed* value by >= 32 bits is the classic layout pack;
    #: literal left operands (1 << 512, 8 << 20) are size constants, not keys.
    _MIN_FIELD_SHIFT = 32

    def _shift_names(self, expr: ast.expr) -> List[str]:
        return [
            n.id for n in ast.walk(expr)
            if isinstance(n, ast.Name)
            and (n.id.endswith("_BYTES") or n.id.endswith("_SHIFT")
                 or n.id == "KEY_BITS")
        ]

    def check(self, module: ParsedModule, context: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else ""
                )
                if name in self._RAW_PACKERS:
                    findings.append(self.finding(
                        module, node,
                        f"raw key packer {name}() outside the key modules",
                    ))
                elif (name == "encode" and isinstance(func, ast.Attribute)
                      and isinstance(func.value, ast.Call)
                      and isinstance(func.value.func, ast.Name)
                      and func.value.func.id == "BlockKey"):
                    findings.append(self.finding(
                        module, node,
                        "BlockKey(...).encode() hand-builds a 64-byte key",
                        hint="use encode_path_key(...) / the KeyScheme API",
                    ))
                elif (name == "from_bytes" and isinstance(func, ast.Attribute)
                      and isinstance(func.value, ast.Name)
                      and func.value.id == "int" and node.args):
                    if self._is_wide_digest(node.args[0]):
                        findings.append(self.finding(
                            module, node,
                            "int.from_bytes over a full-width digest "
                            "hand-hashes a ring key",
                            hint="use hashed_key(name) for uniform keys",
                        ))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift):
                if isinstance(node.left, ast.Constant):
                    continue  # 1 << 512 style size constants
                shift = node.right
                wide = (isinstance(shift, ast.Constant)
                        and isinstance(shift.value, int)
                        and shift.value >= self._MIN_FIELD_SHIFT)
                if wide or self._shift_names(shift):
                    findings.append(self.finding(
                        module, node,
                        "bit-shifting key fields together hand-packs the "
                        "Figure-4 layout",
                        hint="use compose_block_key(prefix, block_number, version)",
                    ))
        return _filter_allowed(module, findings)

    @staticmethod
    def _is_wide_digest(expr: ast.expr) -> bool:
        """True for sha512(...).digest() or <digest>[:N] slices with N >= 64."""
        if isinstance(expr, ast.Subscript):
            sl = expr.slice
            if isinstance(sl, ast.Slice) and isinstance(sl.upper, ast.Constant):
                if isinstance(sl.upper.value, int) and sl.upper.value >= 64:
                    return KeyCompositionRule._is_digest_call(expr.value)
            return False
        return KeyCompositionRule._is_digest_call(expr, wide_only=True)

    @staticmethod
    def _is_digest_call(expr: ast.expr, wide_only: bool = False) -> bool:
        if not (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "digest"):
            return False
        inner = expr.func.value
        if not (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)):
            return False
        algo = inner.func.attr
        return algo == "sha512" if wide_only else algo.startswith(("sha", "md5", "blake"))


#: The rule set, in report order.
ALL_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRandomRule(),
    UnorderedIterationRule(),
    ObservabilityRule(),
    TimeSeriesSimTimeRule(),
    KeyCompositionRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}


def run_rules(modules: Sequence[ParsedModule],
              rules: Sequence[Rule] = ALL_RULES,
              context: Optional[LintContext] = None) -> List[Finding]:
    """Run *rules* over *modules*; findings sorted by location then rule."""
    if context is None:
        context = build_context(modules)
    findings: List[Finding] = []
    for module in modules:
        for rule in rules:
            if rule.applies_to(module):
                findings.extend(rule.check(module, context))
    findings = annotate_symbols(modules, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
