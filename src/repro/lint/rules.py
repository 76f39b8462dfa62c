"""The per-file determinism rules.

Four rules, each a :class:`Rule` producing :class:`Finding`\\ s, each
flagging a source of nondeterminism where it is read:

* **DET001** — no wall-clock reads (``time.time``, ``datetime.now``,
  ``time.monotonic``...) anywhere results can depend on them.
* **DET002** — no unseeded or module-global randomness (``random.random()``,
  bare ``random.Random()``, ``os.urandom``, ``uuid.uuid4``...).
* **DET003** — no iteration over ``set``/``frozenset`` values (or values of
  functions annotated to return sets) without ``sorted(...)``; set order is
  salted per process and silently breaks serial-vs-parallel equality.
* **DET004** — no ambient input: no access to ``os.environ``/``os.getenv``
  (each reviewed knob carries an allow comment) and no ``id()`` value used
  as anything but a mapping key.

Rules resolve call targets through each module's import table and never
flag what they cannot resolve: a missed violation is recoverable (add a
pattern), a false positive teaches people to sprinkle suppressions.

Rules report every finding; a ``# lint: allow=DET001`` comment on (or
directly above) the line is applied once per run, by
:func:`repro.lint.cli.run_lint`.
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


@dataclass
class LintContext:
    """Cross-module facts shared by all rule passes.

    Built once from every scanned module, so rules can resolve names that
    cross file boundaries without importing any project code.
    """

    #: Names of functions annotated to return Set/FrozenSet/AbstractSet.
    set_returning: Set[str] = field(default_factory=set)


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
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
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


# ---------------------------------------------------------------------------
# rule framework


class Rule:
    """One named invariant; subclasses implement :meth:`check`."""

    id: str = ""
    hint: str = ""

    def check(self, module: ParsedModule, context: LintContext) -> List[Finding]:
        raise NotImplementedError

    def finding(self, module: ParsedModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint,
        )


# ---------------------------------------------------------------------------
# DET001 — wall-clock reads


class WallClockRule(Rule):
    id = "DET001"
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
    def _nested_scope(self, node: ast.AST) -> None:
        pass

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _nested_scope


#: The nodes that bind a target per element of an iterable.
Iteration = Union[ast.For, ast.AsyncFor, ast.comprehension]


class SetTyping:
    """Which expressions of one module are statically set-typed.

    DET003 flags iteration over what it finds.  Set sources are
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
    hint = ("wrap the iterable in sorted(...) — set iteration order is salted "
            "per process and poisons results and cache keys")

    _COMPREHENSIONS: Dict[type, str] = {
        ast.ListComp: "list comprehension",
        ast.GeneratorExp: "generator expression",
        ast.DictComp: "dict comprehension",
    }

    def check(self, module: ParsedModule, context: LintContext) -> List[Finding]:
        sets = SetTyping(module, context)
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
# DET004 — ambient input


class AmbientInputRule(Rule):
    id = "DET004"
    hint = ("take the value from the parameter bundle; a reviewed knob read "
            "at the program's edge carries `# lint: allow=DET004`")

    #: The environment, as a mapping and as functions.
    ENVIRONMENT = frozenset({"os.environ", "os.environb", "os.getenv", "os.getenvb"})

    #: Methods whose first argument is a mapping key.
    _KEYED_METHODS = frozenset({"get", "pop", "setdefault"})

    def check(self, module: ParsedModule, context: LintContext) -> List[Finding]:
        findings: List[Finding] = []
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Attribute, ast.Name)):
                origin = resolve_call_target(node, module.imports)
                if origin in self.ENVIRONMENT:
                    findings.append(self.finding(
                        module, node, f"environment read {origin} is ambient "
                        "input the parameter bundle does not hold"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "id"):
                parents = parents or _parent_map(module.tree)
                if not self._mapping_key(node, parents.get(node)):
                    findings.append(self.finding(
                        module, node, "id() used as a value: an object's "
                        "address differs from run to run"))
        return findings

    @classmethod
    def _mapping_key(cls, node: ast.Call, parent: Optional[ast.AST]) -> bool:
        """Whether *node* is only ever a key: an identity-dict lookup."""
        if isinstance(parent, ast.Subscript):
            return parent.slice is node
        if isinstance(parent, ast.DictComp):
            return parent.key is node
        if isinstance(parent, ast.Dict):
            return any(key is node for key in parent.keys)
        return (isinstance(parent, ast.Call) and bool(parent.args)
                and parent.args[0] is node
                and isinstance(parent.func, ast.Attribute)
                and parent.func.attr in cls._KEYED_METHODS)


#: The rule set, in report order.
ALL_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRandomRule(),
    UnorderedIterationRule(),
    AmbientInputRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}


def run_rules(modules: Sequence[ParsedModule], rules: Sequence[Rule],
              context: LintContext) -> List[Finding]:
    """Every finding of the per-file *rules* over *modules*, unsorted."""
    return [
        finding
        for module in modules
        for rule in rules
        for finding in rule.check(module, context)
    ]
