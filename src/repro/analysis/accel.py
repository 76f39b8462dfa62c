"""Acceleration-mode harness: lookup tiers measured under workload shift.

One cell = one (acceleration mode × shift scenario) pair replayed over an
identical deployment and request stream: a D2 deployment serves a Zipf
read stream from ``/pre`` files, the workload shifts
(:mod:`repro.workloads.shift` — flash crowd, task-set migration, or
membership churn), and the stream continues over the post-shift regime.
The row records per-phase *useful* hit ratios (a cache hit that named the
real owner — stale probes don't count), total lookup messages, and the
final adaptive state, so the matrix shows directly whether a mode's
hit ratio *recovers* after the shift and what the traffic bill was.

Determinism contract: like the scale cells, every field of
:meth:`AccelCellResult.deterministic_row` is a pure function of the
parameter bundle and is compared byte-for-byte between serial and
``--jobs N`` runs in CI.  Wall-clock and RSS live in measured fields
outside that comparison; only ``time.perf_counter`` and
``resource.getrusage`` are read.
"""

from __future__ import annotations

import hashlib
import resource
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional

from repro.core.accel import ACCEL_MODES
from repro.core.system import build_deployment
from repro.fs.blocks import BLOCK_SIZE
from repro.workloads.shift import SCENARIOS, shift_stream

#: Nodes crashed (and replaced) at the boundary of the churn scenario.
CHURN_CRASHES = 4

#: Sim-time advance cadence (ops) — lets repair/stabilization progress.
ADVANCE_EVERY = 256


def _rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass
class AccelCellResult:
    """One accel cell: deterministic work fingerprint plus measurements."""

    mode: str
    scenario: str
    n_nodes: int
    clients: int
    lookups: int
    messages: int            # total lookup messages billed (Figure-9 rules)
    messages_post: int       # messages billed after the shift
    cache_hits: int          # correct cached-range hits (0-message lookups)
    stale_faults: int        # cache hits that named a stale owner
    learned_hits: int
    learned_mispredicts: int
    routed: int              # lookups resolved by finger routing
    hit_pre: float           # useful hit ratio, second half of the pre phase
    hit_post: float          # useful hit ratio, first quarter after the shift
    hit_recovered: float     # useful hit ratio, last quarter of the run
    capacity_end: Optional[int]   # summed cache capacity (None = unbounded)
    ttl_end: float           # mean cache TTL at the end of the run
    retrains: int
    membership_evictions: int
    checksum: str            # sha256 over the owner sequence, first 16 hex
    # --- measured (excluded from the determinism contract) ---
    wall_seconds: float = 0.0
    ops_per_sec: float = 0.0
    peak_rss_kb: int = 0
    #: Deployment observability snapshot (counters/gauges/histograms) for
    #: the runner report; never part of a row.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Exported span dicts (``accel.lookup`` roots carry a ``phase``
    #: attribute); written by the runner as ``runner_accel.trace<k>.jsonl``
    #: for ``python -m repro.obs trace``.  Never part of a row.
    trace: Optional[List[Dict[str, object]]] = None

    def deterministic_row(self) -> Dict[str, object]:
        return {
            "cell": "accel",
            "mode": self.mode,
            "scenario": self.scenario,
            "n_nodes": self.n_nodes,
            "clients": self.clients,
            "lookups": self.lookups,
            "messages": self.messages,
            "messages_post": self.messages_post,
            "cache_hits": self.cache_hits,
            "stale_faults": self.stale_faults,
            "learned_hits": self.learned_hits,
            "learned_mispredicts": self.learned_mispredicts,
            "routed": self.routed,
            "hit_pre": round(self.hit_pre, 4),
            "hit_post": round(self.hit_post, 4),
            "hit_recovered": round(self.hit_recovered, 4),
            "capacity_end": self.capacity_end,
            "ttl_end": round(self.ttl_end, 1),
            "retrains": self.retrains,
            "membership_evictions": self.membership_evictions,
            "checksum": self.checksum,
        }

    def row(self) -> Dict[str, object]:
        full = self.deterministic_row()
        full.update(
            wall_seconds=round(self.wall_seconds, 4),
            ops_per_sec=round(self.ops_per_sec, 1),
            peak_rss_kb=self.peak_rss_kb,
        )
        return full


def _build_file_keys(deployment, prefix: str, n_dirs: int,
                     files_per_dir: int) -> List[int]:
    """Create ``/prefix/dirNN/fileM`` files; returns one inode key each.

    One key per file keeps the Zipf ranks aligned with whole files, and
    D2's locality keys make each directory its own arc — so a working set
    of many directories spans many cacheable ranges.
    """
    keys: List[int] = []
    for d in range(n_dirs):
        directory = f"/{prefix}/dir{d:03d}"
        deployment.apply_fs_ops(deployment.fs.makedirs(directory))
        for f in range(files_per_dir):
            path = f"{directory}/file{f}"
            deployment.apply_fs_ops(
                deployment.fs.create(path, size=2 * BLOCK_SIZE)
            )
            keys.append(deployment.read_fetches(path)[0][0])
    return keys


def run_accel_cell(
    *, mode: str, scenario: str, n_nodes: int, clients: int, pre_ops: int,
    post_ops: int, seed: int, n_dirs: int = 40, static_capacity: int = 12,
) -> AccelCellResult:
    """Replay one (mode × scenario) cell; see the module docstring."""
    if mode not in ACCEL_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")

    deployment = build_deployment("d2", n_nodes, seed=seed)
    deployment.bootstrap_volume()
    pre_keys = _build_file_keys(deployment, "pre", n_dirs, 2)
    post_keys = _build_file_keys(deployment, "post", n_dirs, 2)
    deployment.stabilize()
    if scenario == "churn":
        deployment.enable_dynamic_membership(min_nodes=max(2, n_nodes // 2))

    accel = deployment.enable_acceleration(mode, capacity=static_capacity)

    rng = Random(seed + 3)
    client_names = [f"client{i:02d}" for i in range(clients)]
    node_names = deployment.node_names
    homes = {c: node_names[rng.randrange(len(node_names))] for c in client_names}
    home_positions = {
        c: deployment.ring.position_of(node) for c, node in homes.items()
    }

    requests = list(shift_stream(
        scenario, pre_keys, post_keys, client_names,
        pre_ops=pre_ops, post_ops=post_ops, seed=seed + 4,
    ))

    total_ops = pre_ops + post_ops
    # Phase windows for the recovery story: warm half of pre, the quarter
    # right after the shift, and the final quarter of the run.  The same
    # boundaries tag every lookup span with pre/shift/post in the exported
    # trace.
    pre_window = range(pre_ops // 2, pre_ops)
    post_quarter = max(1, post_ops // 4)
    early_window = range(pre_ops, pre_ops + post_quarter)
    late_window = range(total_ops - post_quarter, total_ops)
    shift_end = pre_ops + post_quarter
    windows = {"pre": pre_window, "post": early_window, "recovered": late_window}
    window_hits = {name: 0 for name in windows}
    window_ops = {name: 0 for name in windows}

    digest = hashlib.sha256()
    messages = messages_post = 0
    tier_counts = {"cache": 0, "learned": 0, "route": 0}
    stale_faults = 0
    base_time = deployment.sim.now
    started = time.perf_counter()
    for index, request in enumerate(requests):
        now = base_time + request.now
        if scenario == "churn" and index == pre_ops:
            _churn_shift(deployment, pre_keys, now, seed)
            # Crashed home nodes re-home to the old position's new owner.
            for client in client_names:
                if homes[client] not in deployment.ring:
                    homes[client] = deployment.ring.successor(
                        home_positions[client]
                    )
        if index < pre_ops:
            phase = "pre"
        elif index < shift_end:
            phase = "shift"
        else:
            phase = "post"
        outcome = accel.lookup(request.client, homes[request.client],
                               request.key, now=now, phase=phase)
        digest.update(outcome.owner.encode("ascii"))
        messages += outcome.messages
        if index >= pre_ops:
            messages_post += outcome.messages
        tier_counts[outcome.tier] += 1
        if outcome.stale:
            stale_faults += 1
        useful = 1 if outcome.tier == "cache" else 0
        for name, window in windows.items():
            if index in window:
                window_ops[name] += 1
                window_hits[name] += useful
        if index % ADVANCE_EVERY == 0:
            deployment.advance_to(now)
    wall = time.perf_counter() - started

    capacities = [
        cache.capacity for cache in accel.caches.values()
        if cache.capacity is not None
    ]
    all_caches = list(accel.caches.values())
    unbounded = any(cache.capacity is None for cache in all_caches)
    learned_stats = accel.learned.stats() if accel.learned else {}
    membership_evictions = sum(
        cache.stats.membership_evictions for cache in all_caches
    )

    def ratio(name: str) -> float:
        return window_hits[name] / window_ops[name] if window_ops[name] else 0.0

    return AccelCellResult(
        mode=mode,
        scenario=scenario,
        n_nodes=n_nodes,
        clients=clients,
        lookups=total_ops,
        messages=messages,
        messages_post=messages_post,
        cache_hits=tier_counts["cache"],
        stale_faults=stale_faults,
        learned_hits=tier_counts["learned"],
        learned_mispredicts=int(learned_stats.get("mispredicts", 0)),
        routed=tier_counts["route"],
        hit_pre=ratio("pre"),
        hit_post=ratio("post"),
        hit_recovered=ratio("recovered"),
        capacity_end=None if (unbounded or not all_caches) else sum(capacities),
        ttl_end=(sum(c.ttl for c in all_caches) / len(all_caches))
        if all_caches else 0.0,
        retrains=int(learned_stats.get("retrains", 0)),
        membership_evictions=membership_evictions,
        checksum=digest.hexdigest()[:16],
        wall_seconds=wall,
        ops_per_sec=total_ops / wall if wall > 0 else 0.0,
        peak_rss_kb=_rss_kb(),
        metrics=deployment.observability_snapshot(),
        trace=deployment.spans.to_dicts() if deployment.spans else None,
    )


def _churn_shift(deployment, pre_keys: List[int], now: float,
                 seed: int) -> None:
    """The churn scenario's boundary event: crash hot owners, add joiners.

    Crashes the live owners of the most popular pre keys (the entries
    most likely to be cached fleet-wide) and joins replacement nodes, so
    post-shift probes hit both dead-node entries (membership eviction
    path) and moved-arc entries (stale-fault path).
    """
    membership = deployment.membership
    crashed = 0
    for key in pre_keys:
        if crashed >= CHURN_CRASHES:
            break
        owner = deployment.ring.successor(key)
        if membership.crash(owner):
            crashed += 1
    for index in range(crashed):
        membership.join(f"late{seed:03d}-{index:02d}")
    deployment.advance_to(now)
