"""Load balance and overhead over time (Section 10; Figs 16–17, Tables 3–4).

Two long-running simulations:

* **Harvard** — the file-system workload's mutations (creates, writes,
  deletes, renames) replayed for the full trace, with D2's balancer probing
  every 10 minutes.  Compared against the traditional DHT (consistent
  hashing, no balancing), the traditional-file DHT (whole files on one
  node — the worst balance, since file sizes span 4 orders of magnitude),
  and Traditional+Merc (hashed keys *plus* active balancing — the
  best-case reference D2 should approach).
* **Webcache** — the DHT used as a cooperative web cache (Squirrel):
  insert on miss, evict after a day unrefreshed, replace on origin change.
  The DHT starts empty and daily write volume can exceed stored volume
  by an order of magnitude (Table 3), the hardest case for balancing.

Metrics:

* **imbalance** — normalized standard deviation of total per-node storage
  bytes, sampled on a fixed grid (Figures 16, 17);
* **churn ratios** — daily written/removed bytes over bytes present at the
  day's start (Table 3);
* **overhead** — daily migration (load-balancing) traffic vs write traffic
  (Table 4), reported per node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.analysis.harness import harvard_deployment, replay
from repro.core.system import Deployment, build_deployment
from repro.dht.load_balance import max_over_mean, normalized_std_dev
from repro.sim.failures import ChurnStormConfig
from repro.workloads.trace import READ, SECONDS_PER_DAY, Trace
from repro.workloads.webcache import WebCache, WebCacheKeyScheme


@dataclass
class BalanceSample:
    time: float
    nsd: float
    max_over_mean: float
    total_bytes: int
    nodes_with_data: int


@dataclass
class BalanceResult:
    system: str
    workload: str
    n_nodes: int
    samples: List[BalanceSample]
    daily_written: List[int]
    daily_removed: List[int]
    daily_migrated: List[int]
    bytes_at_day_start: List[int]
    moves: int
    metrics: Optional[dict] = None  # deployment observability snapshot

    def mean_nsd(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.nsd for s in self.samples) / len(self.samples)

    def mean_max_over_mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.max_over_mean for s in self.samples) / len(self.samples)

    def churn_rows(self) -> List[dict]:
        """Table 3 rows: per-day W_i/T_i and R_i/T_i."""
        rows = []
        for day, (written, removed, present) in enumerate(
            zip(self.daily_written, self.daily_removed, self.bytes_at_day_start)
        ):
            rows.append(
                {
                    "day": day + 1,
                    "write_ratio": written / present if present else float("inf"),
                    "remove_ratio": removed / present if present else float("inf"),
                }
            )
        return rows

    def overhead_rows(self) -> List[dict]:
        """Table 4 rows: per-day per-node write vs migration traffic (MB)."""
        rows = []
        for day, (written, migrated) in enumerate(
            zip(self.daily_written, self.daily_migrated)
        ):
            rows.append(
                {
                    "day": day + 1,
                    "write_mb_per_node": written / 1e6 / self.n_nodes,
                    "migration_mb_per_node": migrated / 1e6 / self.n_nodes,
                }
            )
        return rows

    def migration_over_write(self) -> float:
        """Total L/W ratio (paper: ~0.5 for Harvard, ~1.16 for Webcache)."""
        written = sum(self.daily_written)
        migrated = sum(self.daily_migrated)
        return migrated / written if written else 0.0


#: Load samples every 6 simulated hours (the grid Figures 16-17 plot).
SAMPLE_INTERVAL = 6 * 3600.0
#: The web cache's stale-entry scan period.
EVICTION_SCAN_INTERVAL = 3600.0


def _collect_samples(deployment: Deployment, samples: List[BalanceSample]) -> None:
    def sample() -> None:
        loads = list(deployment.store.total_bytes_per_node().values())
        samples.append(
            BalanceSample(
                time=deployment.sim.now,
                nsd=normalized_std_dev(loads),
                max_over_mean=max_over_mean(loads),
                total_bytes=deployment.store.directory.total_bytes,
                nodes_with_data=sum(1 for v in loads if v > 0),
            )
        )

    sample()
    deployment.sim.schedule_periodic(SAMPLE_INTERVAL, sample, first_delay=SAMPLE_INTERVAL)


def _day_tracker(deployment: Deployment, days: int) -> List[int]:
    """Record total stored bytes at the start of each day (Table 3's T_i)."""
    bytes_at_start: List[int] = []

    def snapshot() -> None:
        bytes_at_start.append(deployment.store.directory.total_bytes)

    for day in range(days):
        deployment.sim.schedule_at(day * SECONDS_PER_DAY + 1e-6, snapshot)
    return bytes_at_start


def _balance_run(
    deployment: Deployment, trace: Trace, system: str, n_nodes: int,
    drive: Callable[[], None],
) -> BalanceResult:
    """Sample load and day-start bytes while ``drive()`` replays *trace*."""
    duration = max(trace.duration, SECONDS_PER_DAY)
    days = max(1, int(duration // SECONDS_PER_DAY) + (1 if duration % SECONDS_PER_DAY else 0))
    samples: List[BalanceSample] = []
    _collect_samples(deployment, samples)
    bytes_at_start = _day_tracker(deployment, days)
    drive()
    deployment.advance_to(duration)
    deployment.stop_periodic_balancing()

    series = deployment.store.ledger.daily_series(days)
    return BalanceResult(
        system=system,
        workload=trace.name,
        n_nodes=n_nodes,
        samples=samples,
        daily_written=[row["written"] for row in series],
        daily_removed=[row["removed"] for row in series],
        daily_migrated=[row["migrated"] for row in series],
        bytes_at_day_start=bytes_at_start,
        moves=deployment.store.moves_executed,
        metrics=deployment.observability_snapshot(),
    )


def run_harvard_balance(
    trace: Trace, system: str, *, n_nodes: int = 64, seed: int = 0
) -> BalanceResult:
    """Figure 16 / Tables 3–4 for the file-system workload."""
    deployment = harvard_deployment(trace, system, n_nodes, seed=seed)
    deployment.start_periodic_balancing()
    # Reads are advanced to but not replayed: they do not move data.
    return _balance_run(
        deployment, trace, system, n_nodes, lambda: replay(deployment, trace, reads=False)
    )


def run_webcache_balance(
    web_trace: Trace,
    system: str,
    *,
    n_nodes: int = 64,
    seed: int = 0,
) -> BalanceResult:
    """Figure 17 / Tables 3–4 for the web-cache workload.

    *web_trace* is a stream of READ records whose ``length`` is the object
    size (as produced by :func:`repro.workloads.web.generate_web`).  The
    DHT starts empty; misses insert, origin changes replace, staleness
    evicts.
    """
    if system not in ("d2", "traditional"):
        raise ValueError("webcache balance compares 'd2' and 'traditional'")
    deployment = build_deployment(system, n_nodes, seed=seed)
    # No volume bootstrap: the web cache stores raw keyed blocks.
    if system == "d2":
        deployment.start_periodic_balancing()

    scheme = WebCacheKeyScheme(system)
    cache = WebCache(scheme, rng=random.Random(seed + 3))
    store = deployment.store

    def put(key: int, size: int) -> None:
        store.write(key, size)

    def remove(key: int) -> None:
        if key in store.directory:
            store.remove(key, delay=0.0)

    def drive() -> None:
        deployment.sim.schedule_periodic(
            EVICTION_SCAN_INTERVAL, lambda: cache.evict_stale(deployment.sim.now, remove)
        )
        for record in web_trace.records:
            deployment.advance_to(record.time)
            if record.op == READ:
                cache.request(record.path, max(record.length, 1), record.time, put, remove)

    return _balance_run(deployment, web_trace, system, n_nodes, drive)


def run_dynamic_churn_ratios(
    trace: Trace, *, days: float, n_nodes: int, join_rate: float, leave_rate: float,
    crash_rate: float, seed: int,
) -> List[dict]:
    """Table 3 on a *dynamic* ring: *trace*'s daily ratios plus repair cost.

    Replays the trace while a steady join/leave/crash storm runs through
    :class:`repro.dht.membership.MembershipService`, and buckets write /
    remove / repair bytes per day against the bytes present at that day's
    start.  ``Rep_over_T`` is the repair + graceful-handoff traffic
    re-replication injected, a column the static table cannot have.
    """
    deployment = harvard_deployment(trace, "d2", n_nodes, seed=seed)
    membership = deployment.enable_dynamic_membership()
    membership.schedule_churn_storm(
        ChurnStormConfig(
            duration=days * SECONDS_PER_DAY,
            join_rate=join_rate,
            leave_rate=leave_rate,
            crash_rate=crash_rate,
        )
    )
    deployment.start_periodic_balancing()
    repair = deployment.repair
    counter = deployment.metrics.counter

    n_days = max(1, int(round(days)))
    day_start_bytes: List[int] = []
    repair_bytes_at: List[int] = []
    churn_ops_at: List[int] = []

    def sample_day_start() -> None:
        day_start_bytes.append(deployment.store.directory.total_bytes)
        repair_bytes_at.append(
            repair.stats.repaired_bytes + repair.stats.handoff_bytes
        )
        churn_ops_at.append(int(
            counter("membership.joins").value
            + counter("membership.leaves").value
            + counter("membership.crashes").value
        ))

    sample_day_start()
    for day in range(1, n_days):
        deployment.sim.schedule_at(day * SECONDS_PER_DAY, sample_day_start)
    replay(deployment, trace)
    deployment.advance_to(days * SECONDS_PER_DAY)
    sample_day_start()  # end-of-run sample closes the last day's deltas

    rows: List[dict] = []
    series = deployment.store.ledger.daily_series(n_days)
    for day, entry in enumerate(series):
        present = day_start_bytes[day]
        repaired = repair_bytes_at[day + 1] - repair_bytes_at[day]
        rows.append(
            {
                "workload": "Harvard (dynamic)",
                "day": entry["day"],
                "W_over_T": entry["written"] / present if present else float("inf"),
                "R_over_T": entry["removed"] / present if present else float("inf"),
                "Rep_over_T": repaired / present if present else float("inf"),
                "churn_ops": churn_ops_at[day + 1] - churn_ops_at[day],
                "lost_keys": repair.stats.lost_keys,
            }
        )
    return rows
