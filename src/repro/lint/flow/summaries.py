"""Per-function effect summaries for the flow passes.

For every function in the :class:`~repro.lint.flow.callgraph.FunctionIndex`
this pass records its resolved call sites (the call-graph edges); the
taint pass (DET004) adds whether the function's return value can carry
nondeterminism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.lint.flow.callgraph import FunctionIndex, FunctionInfo, ResolvedCall
from repro.lint.rules import UnseededRandomRule, WallClockRule

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


@dataclass
class FunctionSummary:
    """Everything the flow passes need to know about one function."""

    info: FunctionInfo
    calls: List[ResolvedCall] = field(default_factory=list)
    #: Human-readable provenance when the return value can carry
    #: nondeterminism ("time.time() via _stamp()"); set by the taint pass.
    returns_taint: Optional[str] = None


def build_summaries(index: FunctionIndex) -> Dict[str, FunctionSummary]:
    """Summaries for every indexed function, keyed by qualified name."""
    return {
        qualname: FunctionSummary(info=info, calls=index.calls_in(info))
        for qualname, info in index.by_qualname.items()
    }
