"""Figure 15: access-group latencies, D2 vs traditional-file (scatter).

Paper shape: like Figure 14 — the mass sits above the diagonal, and no
slow (>5 s) group is much faster under traditional-file.
"""

from __future__ import annotations

from typing import List

from repro.experiments import common
from repro.experiments.fig14_latency_scatter import run_fig14


def run_fig15(**kwargs) -> List[dict]:
    return run_fig14(baseline="traditional-file", **kwargs)


def format_fig15(rows: List[dict]) -> str:
    return common.format_table(
        rows,
        ["mode", "n_nodes", "groups", "faster_in_d2", "fraction_above_diagonal",
         "slow_groups", "slow_groups_d2_wins"],
        title="Figure 15: access-group latency scatter summary, D2 vs traditional-file",
    )


if __name__ == "__main__":
    print(format_fig15(run_fig15()))
