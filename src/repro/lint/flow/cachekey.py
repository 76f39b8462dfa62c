"""CACHE001 — cache-key soundness for runner-cached cells.

The disk cache addresses a cell result by ``(SCHEMA_VERSION, kind,
params, ambient)``.  Soundness therefore requires that *every* input the
cell body actually consumes is either (a) inside the parameter bundle,
(b) part of the ambient environment fingerprint
(:data:`repro.runner.cache.AMBIENT_ENV_KEYS`), or (c) provably unable to
alter the result's content.  Parameters are covered by construction —
``cache_key`` hashes the whole bundle — so the gap this pass closes is
**ambient inputs**: ``os.environ`` reads reachable from a cached cell
body.  An unsanctioned env read means two runs with different
environments can share one cache entry — the second silently returns the
first's bytes.

Cells that never cache (the self-timing ``scale``/``accel`` matrices)
are excluded from the proof; their wall-clock numbers are recomputed on
every run by design.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.lint.flow.callgraph import FunctionIndex, FunctionInfo
from repro.lint.flow.summaries import FunctionSummary
from repro.lint.rules import Finding

RULE_ID = "CACHE001"
HINT = ("move the value into the cell's parameter bundle, add the variable "
        "to repro.runner.cache.AMBIENT_ENV_KEYS so it participates in the "
        "fingerprint, or prove it content-neutral and add it to the "
        "sanctioned list with a reason")

#: Cell kinds the drivers always run with the disk cache disabled (they
#: time themselves; a cached wall-clock number would be a lie).  Keep in
#: sync with the ``scale``/``accel`` drivers.
UNCACHED_CELL_KINDS = frozenset({"scale", "accel"})

#: Env vars a cached cell may read, with the reason each one cannot make
#: a cache hit return wrong bytes.
SANCTIONED_ENV: Dict[str, str] = {
    # Ambient-fingerprinted: participates in cache_key via AMBIENT_ENV_KEYS,
    # so differing values address different entries.
    "REPRO_TRACE_SAMPLE": "ambient-fingerprinted in cache_key",
    # Side channels: directories results are exported to, not read from.
    "REPRO_METRICS_DIR": "metrics export side channel; not in results",
    "REPRO_RUN_CACHE": "the cache location itself",
    # Parallelism degree: serial-vs-jobs byte-identity is test-enforced.
    "REPRO_JOBS": "worker count; byte-identity enforced by tests",
}


#: The worker entry point; every ``@cell_kind`` function is a root too.
EXECUTOR_ENTRY = "repro.runner.cells.execute_cell"


def _reachable(roots: Sequence[FunctionInfo],
               summaries: Dict[str, FunctionSummary]) -> Dict[str, Tuple[str, ...]]:
    """qualname -> shortest call chain (as qualnames) from any root."""
    chains: Dict[str, Tuple[str, ...]] = {}
    queue: List[Tuple[FunctionInfo, Tuple[str, ...]]] = [
        (root, (root.qualname,)) for root in roots
    ]
    while queue:
        info, chain = queue.pop(0)
        if info.qualname in chains:
            continue
        chains[info.qualname] = chain
        summary = summaries.get(info.qualname)
        if summary is None:
            continue
        for call in summary.calls:
            if call.target is not None and call.target.qualname not in chains:
                queue.append((call.target, chain + (call.target.qualname,)))
    return chains


def _chain_text(chain: Tuple[str, ...]) -> str:
    return " -> ".join(f"{qual.rsplit('.', 1)[-1]}()" for qual in chain)


def check_cache_keys(index: FunctionIndex,
                     summaries: Dict[str, FunctionSummary]) -> List[Finding]:
    roots: List[FunctionInfo] = []
    entry = index.by_qualname.get(EXECUTOR_ENTRY)
    if entry is not None:
        roots.append(entry)
    roots.extend(
        info for info in index.by_qualname.values()
        if info.cell_kind is not None and info.cell_kind not in UNCACHED_CELL_KINDS
    )
    roots.sort(key=lambda info: info.qualname)
    chains = _reachable(roots, summaries)
    findings: List[Finding] = []
    for qualname in sorted(chains):
        summary = summaries.get(qualname)
        if summary is None:
            continue
        module = summary.info.module
        for env in summary.env_reads:
            if env.key is not None and env.key in SANCTIONED_ENV:
                continue
            if env.key is None:
                message = (
                    f"env read with unresolvable key reachable from a cached "
                    f"cell via {_chain_text(chains[qualname])} — the cache "
                    f"fingerprint cannot be proven to cover it"
                )
            else:
                message = (
                    f"os.environ[{env.key}] reachable from a cached cell via "
                    f"{_chain_text(chains[qualname])} but absent from the "
                    f"cache fingerprint — cache hits may return bytes "
                    f"computed under a different environment"
                )
            findings.append(Finding(
                rule=RULE_ID,
                path=module.path,
                line=getattr(env.node, "lineno", 0),
                col=getattr(env.node, "col_offset", 0) + 1,
                message=message,
                hint=HINT,
            ))
    return findings
