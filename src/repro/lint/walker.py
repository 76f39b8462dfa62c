"""File discovery and parsing for the invariant linter.

The walker turns a set of root paths into :class:`ParsedModule` objects:
the AST, the module's dotted name (derived from the nearest ``src``
layout or package root), its import table, and the
``# lint: allow=RULE[,RULE]`` comments it carries.

Everything downstream is pure: rules consume parsed modules and produce
findings; no rule re-reads the filesystem.  A file that cannot be read or
parsed raises :class:`LintToolError`, which the CLI maps to exit code 2 —
tool failures must never masquerade as a clean (or dirty) run.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Set, Tuple


class LintToolError(Exception):
    """The linter itself failed (unreadable path, syntax error, bad args)."""


#: Suppression directive, anchored at the start of a *comment token*:
#: ``# lint: allow=RULEID`` (one id or a comma list).  Matching real
#: comment tokens — not raw source lines — keeps mentions of the syntax
#: inside docstrings and string literals from acting as suppressions.
_ALLOW_RE = re.compile(r"^#\s*lint:\s*allow=([A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)")


@dataclass
class AllowComment:
    """One ``# lint: allow=...`` comment, for suppression auditing."""

    lineno: int               # physical line the comment sits on
    rules: Tuple[str, ...]    # rule ids it names, sorted
    comment_only: bool        # True when the line holds nothing else

    def covers(self) -> Tuple[int, ...]:
        """Line numbers this comment suppresses findings on."""
        if self.comment_only:
            return (self.lineno, self.lineno + 1)
        return (self.lineno,)


@dataclass
class ParsedModule:
    """One parsed Python source file, ready for rule passes."""

    path: str                 # path as given/joined (used in reports)
    module: str               # dotted module name, e.g. "repro.dht.ring"
    tree: ast.Module
    #: local name -> dotted origin, see :func:`imported_names`
    imports: Dict[str, str]
    #: every suppression comment, in source order
    allow_comments: List[AllowComment] = field(default_factory=list)


def _parse_allow_comments(source: str) -> List[AllowComment]:
    lines = source.splitlines()
    comments: List[AllowComment] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Callers only reach here after a successful ast.parse, so this is
        # a theoretical path; degrade to "no suppressions" rather than die.
        return comments
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _ALLOW_RE.match(token.string)
        if not match:
            continue
        lineno = token.start[0]
        line = lines[lineno - 1] if 1 <= lineno <= len(lines) else ""
        rules = sorted({part.strip() for part in match.group(1).split(",")})
        comments.append(AllowComment(
            lineno=lineno,
            rules=tuple(rules),
            # Comment-only line: the suppression targets the next line too.
            comment_only=line.lstrip().startswith("#"),
        ))
    return comments


def module_name_for(path: str) -> str:
    """Dotted module name of *path*, anchored at a ``src`` dir or package root."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    # Prefer the segment after the last "src"; else walk up while __init__.py
    # exists, so tests/benchmarks paths still get stable short names.
    if "src" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("src")
        return ".".join(parts[anchor + 1:])
    directory = os.path.dirname(os.path.abspath(path))
    package: List[str] = []
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        package.append(os.path.basename(directory))
        directory = os.path.dirname(directory)
    package.reverse()
    stem = os.path.basename(path)
    if stem.endswith(".py"):
        stem = stem[: -len(".py")]
    if stem != "__init__":
        package.append(stem)
    return ".".join(package) if package else stem


def parse_module(path: str) -> ParsedModule:
    """Read and parse one file; :class:`LintToolError` on any failure."""
    try:
        with tokenize.open(path) as handle:  # honors PEP 263 encodings
            source = handle.read()
    except (OSError, SyntaxError, UnicodeDecodeError) as exc:
        raise LintToolError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintToolError(f"cannot parse {path}: {exc}") from exc
    return ParsedModule(
        path=path,
        module=module_name_for(path),
        tree=tree,
        imports=imported_names(tree),
        allow_comments=_parse_allow_comments(source),
    )


def iter_python_files(roots: Sequence[str]) -> Iterator[str]:
    """Yield ``.py`` files under *roots* in sorted, deterministic order."""
    seen: Set[str] = set()
    for root in roots:
        if os.path.isfile(root):
            if root.endswith(".py") and root not in seen:
                seen.add(root)
                yield root
            continue
        if not os.path.isdir(root):
            raise LintToolError(f"no such file or directory: {root}")
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                if path not in seen:
                    seen.add(path)
                    yield path


def parse_tree(roots: Sequence[str]) -> List[ParsedModule]:
    """Parse every Python file under *roots* (deterministic order)."""
    return [parse_module(path) for path in iter_python_files(roots)]


def imported_names(tree: ast.Module) -> Dict[str, str]:
    """Map of local name -> dotted origin for a module's imports.

    ``import time`` maps ``time -> time``; ``import numpy as np`` maps
    ``np -> numpy``; ``from datetime import datetime as dt`` maps
    ``dt -> datetime.datetime``.  Only top-of-tree and function-local
    imports are walked (the whole tree, in fact), which matches how the
    determinism rules resolve call targets.
    """
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                names[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: keep the tail, best effort
                base = node.module or ""
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                names[local] = f"{base}.{alias.name}" if base else alias.name
    return names


def resolve_call_target(node: ast.AST, imports: Dict[str, str]) -> str:
    """Dotted origin of a call target, e.g. ``time.time`` or ``uuid.uuid4``.

    Returns ``""`` when the target cannot be statically resolved (calls on
    arbitrary objects, subscripts, etc.) — unresolvable targets are never
    flagged, keeping the rules false-positive-averse.
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return ""
    root = imports.get(current.id)
    if root is None:
        return ""
    parts.append(root)
    return ".".join(reversed(parts))
