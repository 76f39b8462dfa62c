"""Ablation studies for D2's individual design choices.

The paper motivates each mechanism but only evaluates the assembled
system; these drivers isolate them:

* **pointers** — migration volume with vs without block pointers under a
  hot insert followed by churn (quantifying Figure 6's cascade);
* **threshold** — the balance quality / movement trade-off across the
  Karger–Ruhl threshold ``t`` (the paper fixes t = 4);
* **cache TTL** — lookup-cache miss rate vs entry lifetime under ring
  churn (the paper fixes 1.25 h from PlanetLab's leave/join rate);
* **replicas** — task availability as ``r`` grows (the paper notes that
  with r = 4 D2 had no failures at all while traditional still did).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.analysis.availability import (
    evaluate_tasks, matching_failure_trace, run_availability_replay,
)
from repro.core.config import D2Config
from repro.core.lookup_cache import LookupCache
from repro.core.system import PROBE_INTERVAL
from repro.dht.consistent_hashing import random_node_ids
from repro.dht.load_balance import KargerRuhlBalancer, normalized_std_dev
from repro.dht.ring import Ring
from repro.experiments import common
from repro.experiments.availability import harsh_failure_config
from repro.experiments.workload_cache import harvard_trace
from repro.fs.fslayer import DhtFileSystem, apply_ops
from repro.fs.keyschemes import make_scheme
from repro.sim.engine import Simulator
from repro.store.migration import StorageCoordinator


def _hot_insert_system(use_pointers: bool, *, n_nodes: int, files: int,
                       file_size: int, seed: int):
    rng = random.Random(seed)
    ring = Ring()
    for i, node_id in enumerate(random_node_ids(n_nodes, rng)):
        ring.join(f"n{i:03d}", node_id)
    sim = Simulator()
    store = StorageCoordinator(
        ring, sim, use_pointers=use_pointers, pointer_stabilization_time=3600.0
    )
    fs = DhtFileSystem(make_scheme("d2", "ablation"))
    apply_ops(store, fs.format())
    fs.makedirs("/hot")
    for i in range(files):
        apply_ops(store, fs.create(f"/hot/part{i:05d}", size=file_size))
    return ring, sim, store, fs, rng


def run_pointer_ablation(
    *,
    n_nodes: int = 32,
    files: int = 300,
    file_size: int = 64_000,
    churn_rounds: int = 3,
    seed: int = common.SEED,
) -> List[dict]:
    """Hot insert + churn, with and without pointers.

    Returns rows with inserted bytes, migrated bytes, and the migration
    multiplier (migrated / inserted).  Without pointers the cascade of
    splits moves bytes repeatedly; with pointers each byte moves at most
    once per net placement change.
    """
    rows = []
    for use_pointers in (True, False):
        ring, sim, store, fs, rng = _hot_insert_system(
            use_pointers, n_nodes=n_nodes, files=files, file_size=file_size,
            seed=seed,
        )
        balancer = KargerRuhlBalancer(ring, store, rng=random.Random(seed + 1))
        balancer.balance_until_stable(max_rounds=200)
        # Churn: rewrite and extend parts of the dataset, re-balancing
        # after each burst, so deferred pointers see ongoing activity.
        for burst in range(churn_rounds):
            for i in range(0, files, 7):
                apply_ops(store, fs.write(f"/hot/part{i:05d}", 0, 16_000))
            balancer.balance_until_stable(max_rounds=100)
        sim.run()  # stabilize all pointers
        inserted = store.ledger.total_written
        rows.append(
            {
                "pointers": "on" if use_pointers else "off",
                "written_mb": inserted / 1e6,
                "migrated_mb": store.ledger.total_migrated / 1e6,
                "migration_multiplier": store.ledger.total_migrated / inserted,
                "moves": store.moves_executed,
                "final_nsd": normalized_std_dev(
                    list(store.primary_loads().values())
                ),
            }
        )
    return rows


def run_threshold_ablation(
    *,
    thresholds: Sequence[float] = (2.5, 4.0, 8.0),
    n_nodes: int = 32,
    files: int = 300,
    file_size: int = 64_000,
    seed: int = common.SEED,
) -> List[dict]:
    """Converged imbalance and movement cost across the threshold t.

    Lower t chases balance harder (more moves, flatter loads); higher t
    tolerates imbalance to save migration.  t = 4 is the paper's choice
    (and the smallest with a convergence proof).
    """
    rows = []
    for threshold in thresholds:
        ring, sim, store, fs, rng = _hot_insert_system(
            True, n_nodes=n_nodes, files=files, file_size=file_size, seed=seed
        )
        balancer = KargerRuhlBalancer(
            ring, store, threshold=threshold, rng=random.Random(seed + 1)
        )
        rounds = balancer.balance_until_stable(max_rounds=300)
        sim.run()
        loads = list(store.primary_loads().values())
        mean = sum(loads) / len(loads)
        rows.append(
            {
                "threshold": threshold,
                "rounds": rounds,
                "moves": store.moves_executed,
                "migrated_mb": store.ledger.total_migrated / 1e6,
                "final_nsd": normalized_std_dev(loads),
                "max_over_mean": max(loads) / mean if mean else 0.0,
            }
        )
    return rows


def run_cache_ttl_ablation(
    *,
    ttls: Sequence[float] = (60.0, 4500.0, 1e9),
    n_nodes: int = 48,
    accesses: int = 4000,
    seed: int = common.SEED,
) -> List[dict]:
    """Lookup-cache miss rate vs TTL under ring churn.

    A client walks a user's working set (locality-ordered keys) while the
    ring occasionally changes (a random node re-joins elsewhere, as the
    balancer or churn would cause).  Short TTLs discard still-valid
    entries; infinite TTLs accumulate stale entries whose misdirected
    requests cost a fallback lookup.  The paper's 1.25 h sits between.
    """
    rows = []
    for ttl in ttls:
        rng = random.Random(seed)
        ring = Ring()
        for i, node_id in enumerate(random_node_ids(n_nodes, rng)):
            ring.join(f"n{i:03d}", node_id)
        sim_store = StorageCoordinator(ring, Simulator())
        fs = DhtFileSystem(make_scheme("d2", "ttl"))
        apply_ops(sim_store, fs.format())
        fs.makedirs("/ws")
        for i in range(50):
            apply_ops(sim_store, fs.create(f"/ws/f{i:03d}", size=40_000))
        keys = []
        for i in range(50):
            keys.extend(key for key, _ in [
                (fs.scheme.file_block_key(fs.namespace.resolve_file(f"/ws/f{i:03d}"), n, 1), 0)
                for n in range(5)
            ])
        cache = LookupCache(ttl=ttl)
        stale_penalties = 0
        now = 0.0
        access_gap = 8.0  # ~9 simulated hours over the access budget
        last_churn = 0.0
        for access in range(accesses):
            now += access_gap
            if now - last_churn >= PROBE_INTERVAL:
                last_churn = now
                # Half the churn hits the working set's own owners — that
                # is what load balancing does to a popular arc — and half
                # is background ring churn.
                if rng.random() < 0.5:
                    mover = ring.successor(keys[rng.randrange(len(keys))])
                else:
                    mover = f"n{rng.randrange(n_nodes):03d}"
                target = ring.free_position_at(rng.randrange(1 << 512))
                if target != ring.position_of(mover):
                    ring.change_position(mover, target)
            key = keys[rng.randrange(len(keys))]
            owner = ring.successor(key)
            cached = cache.probe(key, now)
            if cached is None:
                lo, hi = ring.range_of(owner)
                cache.insert(lo, hi, owner, now)
            elif cached != owner:
                stale_penalties += 1
                cache.invalidate(key)
                lo, hi = ring.range_of(owner)
                cache.insert(lo, hi, owner, now)
        stats = cache.stats
        rows.append(
            {
                "ttl_s": ttl,
                "miss_rate": stats.miss_rate,
                "stale_redirects": stale_penalties,
                "total_lookup_cost": stats.misses + stale_penalties,
            }
        )
    return rows


def run_replica_ablation(
    *,
    replica_counts: Sequence[int] = (2, 3, 4),
    systems: Sequence[str] = ("d2", "traditional"),
    n_nodes: int = 48,
    users: int = 6,
    days: float = 1.5,
    seed: int = common.SEED,
) -> List[dict]:
    """Task unavailability as the replication factor grows.

    The paper: "Increasing the number of replicas benefits D2 more; with 4
    replicas, D2 had no failures in all 5 trials while the traditional
    system had at least 3e-6 of its tasks fail."
    """
    trace = harvard_trace(users=users, days=days, seed=seed)
    failures = matching_failure_trace(
        n_nodes, random.Random(seed + 2), harsh_failure_config(days)
    )
    rows = []
    for r in replica_counts:
        row: Dict[str, object] = {"replicas": r}
        for system in systems:
            log = run_availability_replay(
                trace,
                failures,
                system,
                config=D2Config(replica_count=r),
                regeneration_delay=2 * 3600.0,
            )
            row[f"unavail_{system}"] = evaluate_tasks(trace, log, 5.0).unavailability
        rows.append(row)
    return rows


def run_sampling_ablation(
    *,
    n_nodes: int = 32,
    files: int = 300,
    file_size: int = 64_000,
    seed: int = common.SEED,
) -> List[dict]:
    """Global-membership vs Mercury random-walk sampling in the balancer.

    The simulation shortcut (sampling the membership list) and the
    decentralized protocol a real node can execute (Metropolis-corrected
    random walks, :mod:`repro.dht.sampling`) must converge to comparable
    balance at comparable cost — otherwise the simulated results would not
    transfer to a deployment.
    """
    rows = []
    for sampling in ("membership", "random-walk"):
        ring, sim, store, fs, rng = _hot_insert_system(
            True, n_nodes=n_nodes, files=files, file_size=file_size, seed=seed
        )
        balancer = KargerRuhlBalancer(
            ring, store, rng=random.Random(seed + 1), sampling=sampling
        )
        rounds = balancer.balance_until_stable(max_rounds=300)
        sim.run()
        loads = list(store.primary_loads().values())
        mean = sum(loads) / len(loads)
        rows.append(
            {
                "sampling": sampling,
                "rounds": rounds,
                "moves": store.moves_executed,
                "final_nsd": normalized_std_dev(loads),
                "max_over_mean": max(loads) / mean if mean else 0.0,
            }
        )
    return rows
