"""Static projections of the three generated traces (Table 1, Figure 3).

Nothing here replays a trace against a deployment, so there is no grid:
each rows function walks the HP, Harvard and Web traces once.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.locality import analyze_locality, trace_block_accesses
from repro.experiments import common
from repro.experiments.workload_cache import harvard_trace, hp_trace, web_trace
from repro.workloads.trace import Trace


def _traces(users: int, days: float, seed: int) -> List[Trace]:
    return [
        hp_trace(days=days, seed=seed),
        harvard_trace(users=users, days=days, seed=seed),
        web_trace(days=days, seed=seed),
    ]


def workload_rows(users: int = common.TRACE_USERS, days: float = common.TRACE_DAYS,
                  seed: int = common.SEED) -> List[dict]:
    """Table 1: duration, accesses, users and active data of each workload."""
    rows = []
    for trace in _traces(users, days, seed):
        stats = trace.stats()
        rows.append(
            {
                "workload": stats["workload"],
                "duration_days": stats["duration_days"],
                "accesses": stats["accesses"],
                "users": stats["users"],
                "active_mb": stats["active_bytes"] / 1e6,
            }
        )
    return rows


def locality_rows(
    *,
    blocks_per_node: Optional[int] = None,
    users: int = common.TRACE_USERS,
    days: float = common.TRACE_DAYS,
    seed: int = common.SEED,
) -> List[dict]:
    """Figure 3: mean nodes accessed per user-hour under each placement.

    Scaling note: the paper stores 250 MB (32,000 blocks) per node; at our
    trace sizes that would collapse everything onto one node, so
    ``blocks_per_node`` shrinks proportionally (recorded in the output)
    while keeping the three scenarios' *relative* standings — the quantity
    Figure 3 actually plots.
    """
    rows: List[dict] = []
    for trace in _traces(users, days, seed):
        bpn = blocks_per_node
        if bpn is None:
            # Aim for ~50+ nodes so scenario differences are visible.
            universe = set()
            for entries in trace_block_accesses(trace).values():
                universe.update(block for _, block in entries)
            bpn = max(16, len(universe) // 64)
        result = analyze_locality(trace, blocks_per_node=bpn)
        for row in result.rows():
            row["blocks_per_node"] = bpn
            row["n_nodes"] = result.n_nodes
            rows.append(row)
    return rows
