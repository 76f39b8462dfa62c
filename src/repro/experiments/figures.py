"""The figure table: everything ``python -m repro`` can print, one entry each.

``python -m repro``, ``tests/test_experiments.py`` and
``benchmarks/bench_figures.py`` all read :data:`FIGURES`; a new table,
figure, matrix, ablation or extension is one more :class:`Figure` here
(plus its paper-shape check in the bench file), not a module, a CLI
closure and a bench script.  Each entry carries what the paper shows —
the shape the bench asserts — next to the columns it prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import (
    ablations, accel_matrix, availability, balance, churn_storm, extensions,
    performance, scale_matrix, traces,
)
from repro.experiments.common import format_table


@dataclass(frozen=True)
class Table:
    """One printed table: its title, its columns, and where its rows come from."""

    title: str
    columns: Tuple[str, ...]
    rows: Callable[..., List[dict]]


class Figure:
    """One ``python -m repro`` name: ``Figure(name, title, shape, *tables)``.

    ``title`` is the ``list`` line and ``shape`` what the paper reports
    for it.  Scale keywords given to :meth:`rows` / :meth:`render` go to
    every table's rows function and to ``plot`` (text appended under the
    tables); with none, the entry runs at the laptop scale recorded in
    EXPERIMENTS.md.  ``in_all`` is False for the entries that time the
    host (minutes of runtime, machine-dependent numbers).
    """

    def __init__(self, name: str, title: str, shape: str, *tables: Table,
                 plot: Optional[Callable[..., str]] = None, in_all: bool = True) -> None:
        self.name, self.title, self.shape = name, title, shape
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


_SPEEDUP_COLUMNS = ("bandwidth_kbps", "mode", "n_nodes", "speedup", "users_above_1")
_SCATTER_COLUMNS = (
    "mode", "n_nodes", "groups", "faster_in_d2", "fraction_above_diagonal",
    "slow_groups", "slow_groups_d2_wins",
)
_IMBALANCE_COLUMNS = ("system", "mean_nsd", "mean_max_over_mean", "moves")

_ENTRIES = (
    Figure(
        "table1", "Table 1: workloads analyzed",
        """Paper rows: HP 1 week / 238M accesses / 40 GB active data, Harvard
        1 week / 60M / 83 GB, Web 1 week / 47M / 93 GB.  Absolute numbers are
        testbed-scale; ours are generated at laptop scale — what must hold is
        a week-long span, access counts far exceeding file counts, and tens
        of GB -> tens of MB of active data scaling.""",
        Table("Table 1: workloads analyzed (generated, laptop scale)",
              ("workload", "duration_days", "accesses", "users", "active_mb"),
              traces.workload_rows),
    ),
    Figure(
        "fig3", "Figure 3: placement locality",
        """Paper shape: ~2 orders of magnitude between *traditional* and
        *lower-bound*; *ordered* (name-space keys) within ~10x of
        traditional's nodes count (i.e., ~0.1 normalized) and within an order
        of magnitude of the bound, for all three workloads (Web somewhat
        farther from the bound).""",
        Table("Figure 3: mean nodes accessed per user-hour (normalized vs traditional)",
              ("workload", "scenario", "nodes_per_user_hour", "normalized", "n_nodes"),
              traces.locality_rows),
    ),
    Figure(
        "fig7", "Figure 7: task unavailability vs inter",
        """Paper shape: D2 roughly an order of magnitude below the traditional
        DHT at every *inter* (average, max, and min over trials), with several
        D2 trials showing *no* failures at all; traditional-file sits between
        the two.""",
        Table("Figure 7: task unavailability while varying inter",
              ("inter_s", "system", "mean_unavailability", "min", "max",
               "zero_trials", "trials"),
              availability.unavailability_rows),
    ),
    Figure(
        "fig8", "Figure 8: per-user unavailability",
        """Paper shape (inter = 5 s): under D2, failures concentrate in *fewer*
        users (most users see none) while the traditional DHT spreads failures
        across many users — the availability-isolation property of
        defragmentation (Section 4.3).""",
        Table("Figure 8: per-user unavailability, ranked (users with zero omitted)",
              ("system", "rank", "unavailability"),
              availability.per_user_rows),
    ),
    Figure(
        "table2", "Table 2: objects/nodes per task",
        """Paper rows (r = 3, 247 nodes; blocks, files, then nodes touched by
        block / file / D2 placement): 1 s 63 10 | 10 6 2; 5 s 91 15 | 11 8 2;
        15 s 128 22 | 14 10 3; 1 min 237 38 | 23 16 4.  What must hold:
        blocks >> files per task; nodes(traditional) saturating in the tens,
        nodes(traditional-file) somewhat below it, nodes(D2) a small constant
        (2–4), all growing slowly with *inter*.""",
        Table("Table 2: mean objects and nodes accessed per task",
              ("inter_s", "blocks_per_task", "files_per_task", "nodes_traditional",
               "nodes_traditional-file", "nodes_d2"),
              availability.task_stats_rows),
    ),
    Figure(
        "fig9", "Figure 9: lookup traffic vs size",
        """Paper shape: lookup traffic per node *increases* with system size
        for the traditional DHT (its cache miss rate grows with n),
        *decreases* for D2 and traditional-file (miss rates ~independent of n,
        denominator grows); at the largest size D2 sends <1/20 of
        traditional's messages.""",
        Table("Figure 9: lookup messages per node vs system size",
              ("mode", "n_nodes", "msgs_per_node_traditional",
               "msgs_per_node_traditional-file", "msgs_per_node_d2"),
              partial(performance.per_size_rows, "fig9", "msgs_per_node", "messages_per_node")),
    ),
    Figure(
        "fig10", "Figure 10: speedup vs traditional",
        """Paper shape: seq speedup always > 1 and growing with system size
        (>= 1.9x at 1000 nodes); para speedup > 1 at 1500 kbps, but *below* 1
        at 384 kbps for the smaller sizes (the parallelism-vs-locality
        crossover), recovering above 1 at the largest size.""",
        Table("Figure 10: speedup of D2 over the traditional DHT",
              _SPEEDUP_COLUMNS, performance.speedup_rows),
    ),
    Figure(
        "fig11", "Figure 11: speedup vs traditional-file",
        """Paper shape: seq speedup similar to the traditional comparison at
        small sizes but *not* growing with system size (traditional-file's
        cache miss rate is size-stable); para speedup over traditional-file
        *exceeds* the speedup over traditional at the smallest size; D2 wins
        consistently.""",
        Table("Figure 11: speedup of D2 over the traditional-file DHT",
              _SPEEDUP_COLUMNS, partial(performance.speedup_rows, "traditional-file")),
    ),
    Figure(
        "fig12", "Figure 12: per-user speedup",
        """Paper shape (largest size, 1500 kbps): ~half the users beat the
        overall mean; a small minority (6 of 83) see a mild slowdown — users
        whose replicas happen to sit far away — much smaller in magnitude
        than the typical speedup.""",
        Table("Figure 12: per-user mean speedup over the traditional DHT",
              ("mode", "rank", "user", "speedup", "n_nodes"),
              performance.per_user_speedup_rows),
    ),
    Figure(
        "fig13", "Figure 13: cache miss rates",
        """Paper shape: D2's miss rate ~13% and independent of system size; the
        traditional DHT's miss rate >= 47% and *growing* with size; the
        traditional-file DHT in between and size-stable (a user's file
        working set is small).""",
        Table("Figure 13: mean lookup cache miss rate",
              ("mode", "n_nodes", "miss_rate_traditional",
               "miss_rate_traditional-file", "miss_rate_d2"),
              partial(performance.per_size_rows, "fig13", "miss_rate", "mean_miss_rate")),
    ),
    Figure(
        "fig14", "Figure 14: latency scatter vs traditional",
        """Paper shape: the weight of the distribution lies above the diagonal
        (D2 faster); nearly every group slower in D2 is a short (<2 s) group
        whose blocks happened to hash near the client; groups >5 s in either
        system complete faster in D2, sometimes ~10x.""",
        Table("Figure 14: access-group latency scatter summary, D2 vs traditional",
              _SCATTER_COLUMNS, performance.latency_scatter_rows),
        plot=performance.plot_latency_scatter,
    ),
    Figure(
        "fig15", "Figure 15: latency scatter vs traditional-file",
        """Paper shape: like Figure 14 — the mass sits above the diagonal, and
        no slow (>5 s) group is much faster under traditional-file.""",
        Table("Figure 15: access-group latency scatter summary, D2 vs traditional-file",
              _SCATTER_COLUMNS, partial(performance.latency_scatter_rows, "traditional-file")),
    ),
    Figure(
        "table3", "Table 3: daily churn ratios (static + dynamic ring)",
        """Paper shape: Harvard writes and removes ~10–20% of stored bytes per
        day; Webcache can write 100%–1300% of stored bytes in a day and
        removes everything present at a day's start by its end (ratios >=
        ~0.8, sometimes far above 1).  The dynamic-ring table reruns the
        Harvard ratios under live membership change and adds the repair
        traffic re-replication injects per day (``Rep_over_T``): the W/R
        ratios should hold their paper shape under churn; repair traffic is
        the price of it.""",
        Table("Table 3: daily write/remove volume over bytes present at day start",
              ("workload", "day", "W_over_T", "R_over_T"),
              balance.churn_ratio_rows),
        Table("Table 3 (dynamic ring): daily ratios under live join/leave/crash churn",
              ("workload", "day", "W_over_T", "R_over_T", "Rep_over_T",
               "churn_ops", "lost_keys"),
              balance.dynamic_churn_ratio_rows),
    ),
    Figure(
        "churn", "Churn storm: join/leave/crash matrix",
        """Not in the paper, whose Table 3 churn is daily-rate: the Harvard
        workload replayed against a *dynamic* ring under sustained
        join/leave/kill and correlated outages.  What must hold: membership
        really changes, the repair backlog drains to zero with (nearly) every
        surviving block back at full replication, loss stays rare, heavier
        storms do more membership work and correlated outages add crashes.""",
        Table("Churn storm: membership dynamics, repair, and durability",
              ("level", "correlated", "trial", "joins", "leaves", "crashes",
               "stab_mean_s", "stab_p95_s", "backlog_peak", "backlog_drained",
               "repair_completed", "repair_retries", "lost_keys", "loss_prob",
               "fully_replicated", "alerts_fired", "alerts_resolved"),
              churn_storm.run_churn_storm),
    ),
    Figure(
        "fig16", "Figure 16: imbalance, Harvard",
        """Paper shape: normalized stddev ordering traditional-file >>
        traditional > D2 ~ Traditional+Merc, with short D2 spikes after very
        large file inserts that balancing quickly flattens; D2's max node
        load ~1.6x mean (traditional ~2.4x) and never above the t = 4 bound.""",
        Table("Figure 16: load imbalance over time with Harvard (summary)",
              _IMBALANCE_COLUMNS, partial(balance.imbalance_rows, "Harvard")),
        plot=partial(balance.plot_imbalance, "Harvard"),
    ),
    Figure(
        "fig17", "Figure 17: imbalance, Webcache",
        """Paper shape: more volatile than Harvard (the DHT starts empty and
        churn is extreme), with warm-up spikes; after warm-up D2's imbalance
        stays below the traditional DHT's in both stddev and max load.""",
        Table("Figure 17: load imbalance over time with Webcache (summary)",
              _IMBALANCE_COLUMNS, partial(balance.imbalance_rows, "Webcache")),
        plot=partial(balance.plot_imbalance, "Webcache"),
    ),
    Figure(
        "table4", "Table 4: write vs migration traffic",
        """Paper shape: with Harvard, total migration ~50% of total write
        volume ("for every 2 bytes written, 1 byte is migrated later"); with
        Webcache, migration is comparable to — slightly above — the write
        volume (~1.16x).  Pointers are what keep both ratios near 1 instead
        of multiples.""",
        Table("Table 4: daily write vs migration traffic per node (MB)",
              ("workload", "day", "W_mb_per_node", "L_mb_per_node"),
              balance.overhead_rows),
    ),
    Figure(
        "hybrid", "Extension: hybrid replica placement",
        """Section 11 future work.  Three placements of one D2 deployment's
        keys — ``locality`` (r consecutive successors), ``hybrid`` (locality
        primary + hashed secondaries) and the naive ``hybrid-position`` — and
        three questions: *capture* (what fraction of a victim directory does
        an adversary holding r consecutive positions fully own?), *fanout*
        (how many uploaders can a bulk read of a very large file use?) and
        *correlated-failure availability* (what stays readable when a
        contiguous quarter of the ring fails?).""",
        Table("Extension: hybrid replica placement "
              "(adversarial capture / arc outage / bulk-read parallelism)",
              ("placement", "captured_fraction", "readable_under_arc_outage",
               "bulk_read_fanout", "bulk_read_blocks"),
              extensions.run_hybrid_extension),
    ),
    Figure(
        "hotspot", "Extension: retrieval-cache hot spots",
        """Section 6: Mercury-based balancing flattens *storage* load while
        request hot spots are handled orthogonally by retrieval caches.  A
        Zipf-popular set of files (one extremely hot) is fetched by many
        clients; per-node service load with the retrieval-cache layer must be
        markedly flatter than with replicas only.""",
        Table("Extension: request-load balancing under a Zipf hot spot",
              ("scheme", "max_over_mean_requests", "cache_hit_fraction", "nodes_serving"),
              extensions.run_hotspot_extension),
    ),
    Figure(
        "erasure", "Extension: replication vs erasure coding",
        """Section 3's claim: defragmentation's availability advantage is
        redundancy-agnostic — tasks that touch 2 groups beat tasks that touch
        20 whether a block uses r-way replication or an (m, k) erasure code.
        Compared at matched storage cost: replication r = 3 (3.0x), erasure
        (6, 2) (3.0x, stronger within-group redundancy), erasure (4, 2)
        (2.0x, 33% cheaper).""",
        Table("Extension: replication vs erasure coding at matched storage cost",
              ("system", "redundancy", "storage_overhead", "tasks", "failed",
               "unavailability"),
              extensions.run_erasure_extension),
    ),
    Figure(
        "ablations", "Ablations: pointers / t / TTL / replicas / sampling",
        """The paper motivates each mechanism but evaluates only the assembled
        system.  What must hold: pointers cut migration markedly without
        hurting final balance (Figure 6's cascade); looser thresholds tolerate
        more imbalance and every run respects its own t bound; the paper's
        1.25 h TTL sits between a short TTL's misses and an infinite TTL's
        stale redirects; more replicas help D2 at least as much as
        traditional; Mercury random-walk sampling balances as well as the
        membership-list shortcut at comparable cost.""",
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
        "scale", "Scale matrix: engine throughput -> BENCH_scale.json",
        """Not in the paper: routing throughput at 10^3 and 10^4 nodes and one
        10^5-user read replay on a 10^3-node deployment.  The cells time
        themselves; their deterministic fields (ops, hops, fetches, checksum)
        must not move between serial and ``--jobs N`` runs or across PRs.""",
        Table("Scale matrix: engine throughput and memory",
              ("cell", "n_nodes", "users", "ops", "ops_per_sec", "hops", "fetches",
               "windows", "peak_rss_kb", "rss_growth_kb", "checksum"),
              scale_matrix.scale_rows),
        plot=scale_matrix.recorded_note,
        in_all=False,
    ),
    Figure(
        "accel", "Acceleration matrix: modes x workload shift -> BENCH_scale.json",
        """Not in the paper: every lookup-acceleration mode under every
        workload-shift scenario.  The self-sizing cache must recover its
        post-shift hit ratio where the static cache stays degraded, at or
        below the static cache's message bill, with owners (checksum) equal
        across modes.""",
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
