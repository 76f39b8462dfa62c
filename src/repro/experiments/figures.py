"""The figure table: everything ``python -m repro`` can print, one entry each.

``python -m repro`` and ``tests/test_experiments.py`` read :data:`FIGURES`;
a new table, figure, matrix, ablation or extension is one more
:class:`Figure` here, not a module, a CLI closure and a bench script.
Each entry carries the paper's shape as claims
(:mod:`repro.experiments.claims`), which every ``python -m repro`` run
checks on the rows it printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import (
    ablations, accel_matrix, availability, balance, churn_storm, claims, extensions,
    performance, scale_matrix, traces,
)
from repro.experiments.claims import Claim
from repro.experiments.common import format_table


@dataclass(frozen=True)
class Table:
    """One printed table: its title, its columns, and where its rows come from."""

    title: str
    columns: Tuple[str, ...]
    rows: Callable[..., List[dict]]


class Figure:
    """One ``python -m repro`` name: ``Figure(name, title, claims, *tables)``.

    ``title`` is the ``list`` line and ``claims`` what the paper reports
    for it.  Scale keywords given to :meth:`rows` / :meth:`render` go to
    every table's rows function and to ``plot`` (text appended under the
    tables); with none, the entry runs at the laptop scale recorded in
    EXPERIMENTS.md.  ``in_all`` is False for the entries that time the
    host (minutes of runtime, machine-dependent numbers).
    """

    def __init__(self, name: str, title: str, claims: Tuple[Claim, ...], *tables: Table,
                 plot: Optional[Callable[..., str]] = None, in_all: bool = True) -> None:
        self.name, self.title, self.claims = name, title, claims
        self.tables, self.plot, self.in_all = tables, plot, in_all

    def rows(self, **scale) -> List[List[dict]]:
        """The rows of each table, in table order."""
        return [table.rows(**scale) for table in self.tables]

    def render(self, rows: Sequence[List[dict]], **scale) -> str:
        """The report ``python -m repro <name>`` prints for *rows*."""
        parts = [
            format_table(table_rows, table.columns, title=table.title)
            for table, table_rows in zip(self.tables, rows)
        ]
        if self.plot is not None:
            parts.append(self.plot(**scale))
        return "\n\n".join(parts)

    def check(self, rows: Sequence[List[dict]]) -> List[Tuple[bool, str]]:
        """``(ok, line)`` for each gap and each failure among the claims on *rows*.

        ``ok`` is False for a claim that fails and for a gap whose claim
        now holds (the gap is stale).
        """
        lines = []
        for claim in self.claims:
            held = claim.holds(rows)
            if claim.gap is None:
                if not held:
                    lines.append((False, f"[{self.name}] claim failed: {claim.statement}"))
            elif held:
                lines.append((False, f"[{self.name}] gap now holds, mark it held: "
                                     f"{claim.statement}"))
            else:
                lines.append((True, f"[{self.name}] gap: {claim.statement} -- {claim.gap}"))
        return lines


_SPEEDUP_COLUMNS = ("bandwidth_kbps", "mode", "n_nodes", "speedup", "users_above_1")
_SCATTER_COLUMNS = (
    "mode", "n_nodes", "groups", "faster_in_d2", "fraction_above_diagonal",
    "slow_groups", "slow_groups_d2_wins",
)
_IMBALANCE_COLUMNS = ("system", "mean_nsd", "mean_max_over_mean", "moves")

_ENTRIES = (
    Figure(
        "table1", "Table 1: workloads analyzed", claims.TABLE1,
        Table("Table 1: workloads analyzed (generated, laptop scale)",
              ("workload", "duration_days", "accesses", "users", "active_mb"),
              traces.workload_rows),
    ),
    Figure(
        "fig3", "Figure 3: placement locality", claims.FIG3,
        Table("Figure 3: mean nodes accessed per user-hour (normalized vs traditional)",
              ("workload", "scenario", "nodes_per_user_hour", "normalized", "n_nodes"),
              traces.locality_rows),
    ),
    Figure(
        "fig7", "Figure 7: task unavailability vs inter", claims.FIG7,
        Table("Figure 7: task unavailability while varying inter",
              ("inter_s", "system", "mean_unavailability", "min", "max",
               "zero_trials", "trials"),
              availability.unavailability_rows),
    ),
    Figure(
        "fig8", "Figure 8: per-user unavailability", claims.FIG8,
        Table("Figure 8: per-user unavailability, ranked (users with zero omitted)",
              ("system", "rank", "unavailability"),
              availability.per_user_rows),
    ),
    Figure(
        "table2", "Table 2: objects/nodes per task", claims.TABLE2,
        Table("Table 2: mean objects and nodes accessed per task",
              ("inter_s", "blocks_per_task", "files_per_task", "nodes_traditional",
               "nodes_traditional-file", "nodes_d2"),
              availability.task_stats_rows),
    ),
    Figure(
        "fig9", "Figure 9: lookup traffic vs size", claims.FIG9,
        Table("Figure 9: lookup messages per node vs system size",
              ("mode", "n_nodes", "msgs_per_node_traditional",
               "msgs_per_node_traditional-file", "msgs_per_node_d2"),
              partial(performance.per_size_rows, "fig9", "msgs_per_node", "messages_per_node")),
    ),
    Figure(
        "fig10", "Figure 10: speedup vs traditional", claims.FIG10,
        Table("Figure 10: speedup of D2 over the traditional DHT",
              _SPEEDUP_COLUMNS, performance.speedup_rows),
    ),
    Figure(
        "fig11", "Figure 11: speedup vs traditional-file", claims.FIG11,
        Table("Figure 11: speedup of D2 over the traditional-file DHT",
              _SPEEDUP_COLUMNS, partial(performance.speedup_rows, "traditional-file")),
    ),
    Figure(
        "fig12", "Figure 12: per-user speedup", claims.FIG12,
        Table("Figure 12: per-user mean speedup over the traditional DHT",
              ("mode", "rank", "user", "speedup", "n_nodes"),
              performance.per_user_speedup_rows),
    ),
    Figure(
        "fig13", "Figure 13: cache miss rates", claims.FIG13,
        Table("Figure 13: mean lookup cache miss rate",
              ("mode", "n_nodes", "miss_rate_traditional",
               "miss_rate_traditional-file", "miss_rate_d2"),
              partial(performance.per_size_rows, "fig13", "miss_rate", "mean_miss_rate")),
    ),
    Figure(
        "fig14", "Figure 14: latency scatter vs traditional", claims.FIG14,
        Table("Figure 14: access-group latency scatter summary, D2 vs traditional",
              _SCATTER_COLUMNS, performance.latency_scatter_rows),
        plot=performance.plot_latency_scatter,
    ),
    Figure(
        "fig15", "Figure 15: latency scatter vs traditional-file", claims.FIG15,
        Table("Figure 15: access-group latency scatter summary, D2 vs traditional-file",
              _SCATTER_COLUMNS, partial(performance.latency_scatter_rows, "traditional-file")),
    ),
    Figure(
        "table3", "Table 3: daily churn ratios (static + dynamic ring)", claims.TABLE3,
        Table("Table 3: daily write/remove volume over bytes present at day start",
              ("workload", "day", "W_over_T", "R_over_T"),
              balance.churn_ratio_rows),
        Table("Table 3 (dynamic ring): daily ratios under live join/leave/crash churn",
              ("workload", "day", "W_over_T", "R_over_T", "Rep_over_T",
               "churn_ops", "lost_keys"),
              balance.dynamic_churn_ratio_rows),
    ),
    Figure(
        "churn", "Churn storm: join/leave/crash matrix", claims.CHURN,
        Table("Churn storm: membership dynamics, repair, and durability",
              ("level", "correlated", "trial", "joins", "leaves", "crashes",
               "stab_mean_s", "stab_p95_s", "backlog_peak", "backlog_drained",
               "repair_completed", "repair_retries", "lost_keys", "loss_prob",
               "fully_replicated", "alerts_fired", "alerts_resolved"),
              churn_storm.run_churn_storm),
    ),
    Figure(
        "fig16", "Figure 16: imbalance, Harvard", claims.FIG16,
        Table("Figure 16: load imbalance over time with Harvard (summary)",
              _IMBALANCE_COLUMNS, partial(balance.imbalance_rows, "Harvard")),
        plot=partial(balance.plot_imbalance, "Harvard"),
    ),
    Figure(
        "fig17", "Figure 17: imbalance, Webcache", claims.FIG17,
        Table("Figure 17: load imbalance over time with Webcache (summary)",
              _IMBALANCE_COLUMNS, partial(balance.imbalance_rows, "Webcache")),
        plot=partial(balance.plot_imbalance, "Webcache"),
    ),
    Figure(
        "table4", "Table 4: write vs migration traffic", claims.TABLE4,
        Table("Table 4: daily write vs migration traffic per node (MB)",
              ("workload", "day", "W_mb_per_node", "L_mb_per_node"),
              balance.overhead_rows),
    ),
    Figure(
        "hybrid", "Extension: hybrid replica placement", claims.HYBRID,
        Table("Extension: hybrid replica placement "
              "(adversarial capture / arc outage / bulk-read parallelism)",
              ("placement", "captured_fraction", "readable_under_arc_outage",
               "bulk_read_fanout", "bulk_read_blocks"),
              extensions.run_hybrid_extension),
    ),
    Figure(
        "hotspot", "Extension: retrieval-cache hot spots", claims.HOTSPOT,
        Table("Extension: request-load balancing under a Zipf hot spot",
              ("scheme", "max_over_mean_requests", "cache_hit_fraction", "nodes_serving"),
              extensions.run_hotspot_extension),
    ),
    Figure(
        "erasure", "Extension: replication vs erasure coding", claims.ERASURE,
        Table("Extension: replication vs erasure coding at matched storage cost",
              ("system", "redundancy", "storage_overhead", "tasks", "failed",
               "unavailability"),
              extensions.run_erasure_extension),
    ),
    Figure(
        "ablations", "Ablations: pointers / t / TTL / replicas / sampling", claims.ABLATIONS,
        Table("Ablation: block pointers",
              ("pointers", "written_mb", "migrated_mb", "migration_multiplier",
               "moves", "final_nsd"),
              ablations.run_pointer_ablation),
        Table("Ablation: balance threshold t",
              ("threshold", "rounds", "moves", "migrated_mb", "final_nsd",
               "max_over_mean"),
              ablations.run_threshold_ablation),
        Table("Ablation: lookup-cache TTL",
              ("ttl_s", "miss_rate", "stale_redirects", "total_lookup_cost"),
              ablations.run_cache_ttl_ablation),
        Table("Ablation: replica count",
              ("replicas", "unavail_d2", "unavail_traditional"),
              ablations.run_replica_ablation),
        Table("Ablation: balancer sampling strategy",
              ("sampling", "rounds", "moves", "final_nsd", "max_over_mean"),
              ablations.run_sampling_ablation),
    ),
    Figure(
        "scale", "Scale matrix: engine throughput -> BENCH_scale.json", claims.SCALE,
        Table("Scale matrix: engine throughput and memory",
              ("cell", "n_nodes", "users", "ops", "ops_per_sec", "hops", "fetches",
               "windows", "peak_rss_kb", "rss_growth_kb", "checksum"),
              scale_matrix.scale_rows),
        plot=scale_matrix.recorded_note,
        in_all=False,
    ),
    Figure(
        "accel", "Acceleration matrix: modes x workload shift -> BENCH_scale.json", claims.ACCEL,
        Table("Acceleration matrix: hit-ratio recovery under workload shift",
              ("scenario", "mode", "lookups", "messages", "messages_post", "hit_pre",
               "hit_post", "hit_recovered", "stale_faults", "learned_hits",
               "capacity_end", "ttl_end", "checksum"),
              accel_matrix.accel_rows),
        plot=scale_matrix.recorded_note,
        in_all=False,
    ),
)

#: Every ``python -m repro`` name, in ``list`` / ``all`` order.
FIGURES: Dict[str, Figure] = {figure.name: figure for figure in _ENTRIES}
