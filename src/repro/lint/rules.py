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

Rules report every finding; a ``# lint: allow=DET001`` comment on (or
directly above) the line is applied once per run, by
:func:`repro.lint.cli.run_lint`, for the per-file and flow rules alike.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.walker import ParsedModule, resolve_call_target

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
    #: module path -> its :class:`SetTyping`, built on first use
    _set_typing: Dict[str, "SetTyping"] = field(default_factory=dict)

    def set_typing(self, module: ParsedModule) -> "SetTyping":
        """The one set detector for *module*, shared by DET003 and DET004."""
        if module.path not in self._set_typing:
            self._set_typing[module.path] = SetTyping(module, self)
        return self._set_typing[module.path]


def _register_kind_literal(node: ast.Call) -> Optional[str]:
    """The literal kind of a ``register_kind("...")`` call, if any."""
    if call_name(node) != "register_kind" or not node.args:
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


def call_name(node: ast.Call) -> str:
    """The bare name a call goes through: ``f`` for ``f()`` and ``x.f()``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def receiver_name(func: ast.Attribute) -> str:
    """The last name of a method call's receiver: ``bank`` for ``self.bank.f``."""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return ""


#: Receiver-name fragments whose ``.sample``/``.record`` is a time-series
#: write (OBS002's receivers and DET004's series sinks).
SERIESISH = ("series", "bank", "timeseries", "health", "monitor")


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
        imports = module.imports
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call_target(node.func, imports)
            if origin in self.BANNED:
                findings.append(self.finding(
                    module, node, f"wall-clock read {origin}() in deterministic code"
                ))
        return findings


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
        imports = module.imports
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
        return findings


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


#: The nodes that bind a target per element of an iterable.
Iteration = Union[ast.For, ast.AsyncFor, ast.comprehension]


class SetTyping:
    """Which expressions of one module are statically set-typed.

    The one set detector: DET003 flags iteration over what it finds and
    DET004 taints the loop variables of that iteration.  Set sources are
    set literals, ``set()``/``frozenset()`` calls, locals and
    ``self.<attr>`` names assigned from them (or annotated as sets), and
    calls to functions annotated ``-> Set[...]`` anywhere in the scan.
    """

    def __init__(self, module: ParsedModule, context: LintContext) -> None:
        self.set_returning = context.set_returning
        self.parents = _parent_map(module.tree)
        #: scope node (the module, each def) -> its set-typed names
        self.scopes: Dict[ast.AST, _ScopeSets] = {}
        for scope_node in [module.tree] + [
            n for n in ast.walk(module.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]:
            table = _ScopeSets()
            for stmt in scope_node.body:
                table.visit(stmt)
            self.scopes[scope_node] = table
        #: class node -> set-typed ``self.<attr>`` names of every def in it
        self.class_attrs: Dict[ast.AST, Set[str]] = {}
        for scope_node, table in self.scopes.items():
            for ancestor in self._lineage(scope_node):
                if isinstance(ancestor, ast.ClassDef):
                    self.class_attrs.setdefault(ancestor, set()).update(
                        table.set_attrs)

    def _lineage(self, node: Optional[ast.AST]) -> Iterator[ast.AST]:
        """*node*, then each of its ancestors up to the module."""
        current: Optional[ast.AST] = node
        while current is not None:
            yield current
            current = self.parents.get(current)

    def set_valued(self, expr: ast.expr, at: ast.AST) -> Optional[str]:
        """A description when *expr* (found at *at*) is set-typed, else None."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(expr, ast.Call):
            name = call_name(expr)
            if isinstance(expr.func, ast.Name) and name in ("set", "frozenset"):
                return f"{name}(...)"
            if name in self.set_returning:
                return f"{name}() (annotated -> Set)"
            return None
        if isinstance(expr, ast.Name):
            table = next(self.scopes[node] for node in self._lineage(at)
                         if node in self.scopes)
            if expr.id in table.set_names and expr.id not in table.other_names:
                return f"set-typed local {expr.id!r}"
            return None
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            cls = next((node for node in self._lineage(at)
                        if isinstance(node, ast.ClassDef)), None)
            if cls is not None and expr.attr in self.class_attrs.get(cls, ()):
                return f"set-typed attribute self.{expr.attr}"
        return None

    def order_free_consumer(self, node: ast.AST) -> bool:
        """True when the nearest enclosing call absorbs iteration order."""
        for current in self._lineage(self.parents.get(node)):
            if isinstance(current, ast.Call):
                return call_name(current) in _ORDER_FREE_CALLS
            if isinstance(current, (ast.stmt, ast.Module)):
                return False
        return False

    def unordered_iteration(self, node: Iteration) -> Optional[str]:
        """What a ``for`` loop or ``comprehension`` *node* walks in set order.

        None when its iterable is not set-typed, or when the comprehension
        builds a set or feeds an order-free consumer (``sorted``, ``sum``...).
        """
        what = self.set_valued(node.iter, node)
        if what and isinstance(node, ast.comprehension) and (
                isinstance(self.parents.get(node), ast.SetComp)
                or self.order_free_consumer(node)):
            return None
        return what


class UnorderedIterationRule(Rule):
    id = "DET003"
    title = "no iteration over unordered sets"
    hint = ("wrap the iterable in sorted(...) — set iteration order is salted "
            "per process and poisons results and cache keys")

    _COMPREHENSIONS: Dict[type, str] = {
        ast.ListComp: "list comprehension",
        ast.GeneratorExp: "generator expression",
        ast.DictComp: "dict comprehension",
    }

    def check(self, module: ParsedModule, context: LintContext) -> List[Finding]:
        sets = context.set_typing(module)
        findings: List[Finding] = []

        def flag(site: ast.AST, how: str, what: Optional[str]) -> None:
            if what:
                findings.append(self.finding(
                    module, site,
                    f"{how} iterates over {what} in unspecified order",
                ))

        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                flag(node, "for loop", sets.unordered_iteration(node))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    flag(node, self._COMPREHENSIONS[type(node)],
                         sets.unordered_iteration(gen))
            elif isinstance(node, ast.Call) and node.args:
                name = call_name(node)
                if name in _ORDER_CAPTURING_CALLS:
                    what = sets.set_valued(node.args[0], node)
                    if what and not sets.order_free_consumer(node):
                        flag(node, f"{name}(...)", what)
                elif name == "join":
                    flag(node, "str.join", sets.set_valued(node.args[0], node))
        return findings


# ---------------------------------------------------------------------------
# OBS001 — the event vocabulary


class ObservabilityRule(Rule):
    id = "OBS001"
    title = "emitted event kinds are registered"
    hint = "register event kinds via repro.obs.events.register_kind"

    #: Receivers whose ``.emit`` is an event-tracer emit; other ``.emit``
    #: methods (if any ever appear) are out of scope for this rule.
    _TRACERISH = ("tracer", "events")

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
        imports = module.imports
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr != "emit" or not node.args:
                continue
            receiver = receiver_name(node.func).lower()
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
        return findings


# ---------------------------------------------------------------------------
# OBS002 — time-series samples carry sim-time


class TimeSeriesSimTimeRule(Rule):
    id = "OBS002"
    title = "time-series samples carry sim-time, not host-clock reads"
    hint = ("sample(sim.now, value) — a host-clock timestamp makes the "
            "window geometry (and every SLO evaluation) machine-dependent; "
            "time.perf_counter belongs in measured wall-clock fields only")

    #: Every DET001 wall-clock source, plus the process timers DET001
    #: sanctions for wall-clock *reporting* — none of them may become a
    #: sample timestamp or value.
    BANNED = WallClockRule.BANNED | frozenset({
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
    })

    def check(self, module: ParsedModule, context: LintContext) -> List[Finding]:
        imports = module.imports
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in ("sample", "record"):
                continue
            receiver = receiver_name(node.func).lower()
            if not any(tag in receiver for tag in SERIESISH):
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
        return findings


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
                name = call_name(node)
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
        return findings

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


def run_rules(modules: Sequence[ParsedModule], rules: Sequence[Rule],
              context: LintContext) -> List[Finding]:
    """Every finding of the per-file *rules* over *modules*, unsorted."""
    return [
        finding
        for module in modules
        for rule in rules if rule.applies_to(module)
        for finding in rule.check(module, context)
    ]
