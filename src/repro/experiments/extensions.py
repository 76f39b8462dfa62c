"""Extension experiments: claims the paper makes but does not evaluate.

* :func:`run_hybrid_extension` — hybrid replica placement (Section 11);
* :func:`run_hotspot_extension` — request-load balancing via retrieval
  caches (Section 6);
* :func:`run_erasure_extension` — replication vs erasure coding
  (Section 3).

None of them runs a grid of cells; each builds its own deployment.
"""

from __future__ import annotations

import random
from typing import List

from repro.analysis.availability import matching_failure_trace
from repro.analysis.harness import harvard_deployment, replay
from repro.core.hybrid import (
    arc_capture_exposure,
    parallel_read_fanout,
    placement_holders,
)
from repro.core.system import ReplayOutcome, build_deployment
from repro.experiments import common
from repro.experiments.availability import harsh_failure_config
from repro.experiments.workload_cache import harvard_trace
from repro.fs.blocks import BLOCK_SIZE
from repro.store.erasure import ErasureConfig
from repro.store.retrieval_cache import RetrievalCacheLayer, replica_only_service
from repro.workloads.tasks import segment_tasks
from repro.workloads.trace import READ, WRITE, TraceRecord


def run_hybrid_extension(
    *,
    n_nodes: int = 64,
    victim_files: int = 20,
    big_file_blocks: int = 64,
    replicas: int = 3,
    seed: int = common.SEED,
) -> List[dict]:
    rng = random.Random(seed)
    deployment = build_deployment("d2", n_nodes, seed=seed)
    deployment.bootstrap_volume()
    deployment.apply_fs_ops(deployment.fs.makedirs("/victim"))
    for i in range(victim_files):
        deployment.apply_fs_ops(
            deployment.fs.create(f"/victim/doc{i:03d}", size=4 * BLOCK_SIZE)
        )
    deployment.stabilize()
    # The large file is written *after* balancing converges: until probes
    # catch up it sits on a single replica group — exactly the situation
    # the paper's Section 9.3/11 discussion worries about.
    deployment.apply_fs_ops(
        deployment.fs.create("/bigfile.bin", size=big_file_blocks * BLOCK_SIZE)
    )

    victim_keys = []
    for i in range(victim_files):
        victim_keys.extend(
            key for key, _ in deployment.read_fetches(f"/victim/doc{i:03d}")
        )
    big_keys = [key for key, _ in deployment.read_fetches("/bigfile.bin")]
    ring = deployment.ring

    rows: List[dict] = []
    for placement in ("locality", "hybrid", "hybrid-position"):
        capture = arc_capture_exposure(
            ring,
            victim_keys,
            replicas,
            placement=placement,
            arc_nodes=replicas,
            trials=150,
            rng=random.Random(seed + 1),
        )
        fanout = parallel_read_fanout(ring, big_keys, replicas, placement=placement)
        # Correlated outage: a random contiguous quarter of the ring fails.
        names = list(ring.names())
        survived = 0.0
        trials = 100
        for _ in range(trials):
            start = rng.randrange(len(names))
            down = {names[(start + i) % len(names)] for i in range(len(names) // 4)}
            alive = set(names) - down
            readable = 0
            for key in victim_keys:
                if any(h in alive
                       for h in placement_holders(ring, key, replicas, placement)):
                    readable += 1
            survived += readable / len(victim_keys)
        rows.append(
            {
                "placement": placement,
                "captured_fraction": capture,
                "bulk_read_fanout": fanout,
                "bulk_read_blocks": len(big_keys),
                "readable_under_arc_outage": survived / trials,
            }
        )
    return rows


def run_hotspot_extension(
    *,
    n_nodes: int = 48,
    n_files: int = 30,
    n_clients: int = 40,
    requests: int = 6000,
    zipf_s: float = 1.2,
    cache_ttl: float = 300.0,
    seed: int = common.SEED,
) -> List[dict]:
    rng = random.Random(seed)
    deployment = build_deployment("d2", n_nodes, seed=seed)
    deployment.bootstrap_volume()
    deployment.apply_fs_ops(deployment.fs.makedirs("/pub"))
    file_keys = []
    for i in range(n_files):
        deployment.apply_fs_ops(
            deployment.fs.create(f"/pub/item{i:03d}", size=2 * BLOCK_SIZE)
        )
        file_keys.append(
            [key for key, _ in deployment.read_fetches(f"/pub/item{i:03d}")]
        )
    deployment.stabilize()
    # Re-derive keys' owners after balancing (keys themselves are stable).
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(n_files)]
    total = sum(weights)
    weights = [w / total for w in weights]
    clients = [deployment.node_names[rng.randrange(n_nodes)] for _ in range(n_clients)]

    request_stream = []
    now = 0.0
    for _ in range(requests):
        now += rng.expovariate(10.0)  # ~10 requests/sec across the system
        file_index = rng.choices(range(n_files), weights=weights, k=1)[0]
        key = file_keys[file_index][rng.randrange(len(file_keys[file_index]))]
        client = clients[rng.randrange(n_clients)]
        request_stream.append((now, key, client))

    layer = RetrievalCacheLayer(
        deployment.ring,
        replica_count=deployment.config.replica_count,
        cache_ttl=cache_ttl,
        rng=random.Random(seed + 1),
    )
    for when, key, client in request_stream:
        layer.serve(key, client, when)

    baseline = replica_only_service(
        deployment.ring,
        [(key, client) for _, key, client in request_stream],
        replica_count=deployment.config.replica_count,
        rng=random.Random(seed + 1),
    )
    baseline_counts = list(baseline.values())
    base_mean = sum(baseline_counts) / len(baseline_counts)

    return [
        {
            "scheme": "replicas-only",
            "max_over_mean_requests": max(baseline_counts) / base_mean,
            "cache_hit_fraction": 0.0,
            "nodes_serving": sum(1 for c in baseline_counts if c > 0),
        },
        {
            "scheme": "retrieval-caches",
            "max_over_mean_requests": layer.hot_spot_factor(),
            "cache_hit_fraction": layer.stats.cache_fraction,
            "nodes_serving": sum(1 for c in layer.served_counts().values() if c > 0),
        },
    ]


def run_erasure_extension(
    *,
    n_nodes: int = 64,
    users: int = 6,
    days: float = 1.0,
    inter: float = 5.0,
    seed: int = common.SEED,
) -> List[dict]:
    trace = harvard_trace(users=users, days=days, seed=seed)
    failures = matching_failure_trace(
        n_nodes, random.Random(seed + 5), harsh_failure_config(days)
    )
    schemes = [
        ("replication r=3", ErasureConfig.replication(3)),
        ("erasure (6,2)", ErasureConfig(total=6, needed=2)),
        ("erasure (4,2)", ErasureConfig(total=4, needed=2)),
    ]
    rows: List[dict] = []
    for system in ("d2", "traditional"):
        deployment = harvard_deployment(trace, system, n_nodes, seed=seed)
        deployment.start_periodic_balancing()

        # Replay once, precomputing for every accessed key how many of its
        # first i successors were alive at access time; each scheme is then
        # a pure threshold test on the same numbers.
        max_total = max(config.total for _, config in schemes)
        record_counts = {}

        def measure(record: TraceRecord, outcome: ReplayOutcome) -> None:
            if outcome.skipped or record.op not in (READ, WRITE):
                return
            alive = failures.up_set(record.time)
            per_key = []
            for key in outcome.keys:
                holders = deployment.ring.successors(key, max_total)
                up_prefix = []
                up = 0
                for holder in holders:
                    up += holder in alive
                    up_prefix.append(up)
                per_key.append(up_prefix)
            record_counts[id(record)] = per_key

        replay(deployment, trace, measure)
        tasks = segment_tasks(trace, inter)

        for label, config in schemes:
            failed = 0
            for task in tasks:
                ok = True
                for record in task.records:
                    per_key = record_counts.get(id(record))
                    if per_key is None:
                        continue
                    for up_prefix in per_key:
                        index = min(config.total, len(up_prefix)) - 1
                        if up_prefix[index] < config.needed:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    failed += 1
            rows.append(
                {
                    "system": system,
                    "redundancy": label,
                    "storage_overhead": config.storage_overhead,
                    "tasks": len(tasks),
                    "failed": failed,
                    "unavailability": failed / len(tasks) if tasks else 0.0,
                }
            )
    return rows
