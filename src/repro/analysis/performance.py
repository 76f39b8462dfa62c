"""End-to-end read performance (Section 9; Figures 9–15).

Replays 15-minute windows of the Harvard-like workload against each system
and times every *access group* (burst between think times) under two
parallelism extremes:

* ``seq`` — accesses issue strictly one after another;
* ``para`` — all accesses in a group issue concurrently, capped at 15
  in-flight transfers per client (Section 9.1's empirical limit).

The latency of one block fetch is composed of

1. **lookup** — on a lookup-cache miss, a recursive O(log n) routed lookup
   whose latency is the sum of its hop legs plus the response leg, and
   whose messages count toward Figure 9;
2. **download** — a TCP transfer from a randomly chosen replica, with slow
   start, idle-restart, and FIFO contention on the server's access link
   (Section 9.3's analysis).

Windows are initialized the way the paper initializes Emulab runs: all
records before the window are replayed (writes mutate the FS; reads warm
each user's lookup cache and buffer cache), then the window itself is
timed.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.analysis.harness import harvard_deployment, replay
from repro.core.config import D2Config
from repro.core.lookup_cache import LookupCache
from repro.core.system import Deployment, ReplayOutcome
from repro.dht.routing import route
from repro.sim.engine import TokenBucket, kbps
from repro.sim.network import LatencyModel
from repro.sim.transport import TcpTransport
from repro.workloads.tasks import segment_access_groups
from repro.workloads.trace import READ, Trace, TraceRecord

SEQ = "seq"
PARA = "para"
MODES = (SEQ, PARA)
WINDOW_SECONDS = 900.0  # one timed window: the paper's 15 minutes
MAX_CONCURRENT_TRANSFERS = 15  # a client's parallel fetch cap (Section 9.1)


@dataclass
class GroupTiming:
    """Completion time of one access group in one system."""

    user: str
    start: float
    fetches: int
    completion: float  # seconds of simulated latency


@dataclass
class PerformanceResult:
    system: str
    mode: str
    n_nodes: int
    bandwidth_bps: float
    group_timings: List[GroupTiming]
    lookup_messages: int
    lookups: int
    cache_hits: int
    cache_misses: int
    per_user_miss_rate: Dict[str, float]
    metrics: Optional[Dict[str, object]] = None  # deployment observability snapshot
    trace: Optional[List[Dict[str, object]]] = None  # exported span dicts

    @property
    def messages_per_node(self) -> float:
        return self.lookup_messages / self.n_nodes if self.n_nodes else 0.0

    @property
    def mean_miss_rate(self) -> float:
        rates = list(self.per_user_miss_rate.values())
        return sum(rates) / len(rates) if rates else 0.0

    def timings_by_group(self) -> Dict[Tuple[str, float], GroupTiming]:
        return {(t.user, t.start): t for t in self.group_timings}


@dataclass
class SpeedupReport:
    """Geometric-mean speedups of *fast* over *base* (Figures 10–12)."""

    overall: float
    per_user: Dict[str, float]
    pairs: List[Tuple[float, float]]  # (base completion, fast completion)

    @property
    def fraction_above_one(self) -> float:
        users = list(self.per_user.values())
        if not users:
            return 0.0
        return sum(1 for s in users if s > 1.0) / len(users)


def compare(base: PerformanceResult, fast: PerformanceResult) -> SpeedupReport:
    """Per-group completion-time ratios, aggregated the paper's way.

    Per user: geometric mean over that user's access groups.  Overall: the
    geometric mean across users (Section 9.3, footnote 6).
    """
    base_map = base.timings_by_group()
    fast_map = fast.timings_by_group()
    per_user_logs: Dict[str, List[float]] = defaultdict(list)
    pairs: List[Tuple[float, float]] = []
    floor = 1e-4  # guard: zero-latency groups (fully cache-absorbed)
    for key, base_timing in base_map.items():
        fast_timing = fast_map.get(key)
        if fast_timing is None:
            continue
        b = max(base_timing.completion, floor)
        f = max(fast_timing.completion, floor)
        pairs.append((base_timing.completion, fast_timing.completion))
        per_user_logs[key[0]].append(math.log(b / f))
    per_user = {
        user: math.exp(sum(logs) / len(logs)) for user, logs in per_user_logs.items() if logs
    }
    if per_user:
        overall = math.exp(sum(math.log(s) for s in per_user.values()) / len(per_user))
    else:
        overall = 1.0
    return SpeedupReport(overall=overall, per_user=per_user, pairs=pairs)


class _Client:
    """One user's client-side state: node placement and caches."""

    def __init__(self, user: str, node: str, lookup_cache: LookupCache) -> None:
        self.user = user
        self.node = node
        self.lookup_cache = lookup_cache
        self.buffer_cache: Dict[Hashable, Tuple[float, int]] = {}  # ident -> (time, key)


class PerformanceHarness:
    """Shared machinery for replaying timed windows against one deployment."""

    def __init__(
        self,
        deployment: Deployment,
        latency: LatencyModel,
        *,
        bandwidth_bps: float,
        rng: random.Random,
    ) -> None:
        self.deployment = deployment
        self.latency = latency
        self.bandwidth = bandwidth_bps
        self.rng = rng
        self.buffer_ttl = 30.0  # the client buffer cache's staleness bound (PAPER.md)
        self.spans = deployment.spans
        self.transport = TcpTransport(latency, spans=deployment.spans)
        self.server_links: Dict[str, TokenBucket] = {}
        self.clients: Dict[str, _Client] = {}
        self.lookup_messages = 0
        self.lookups = 0
        # Aggregate observability: client caches are the deployment's own
        # (registry, tracer, snapshot gauges); the harness adds distributions.
        self._h_route_messages = deployment.metrics.histogram("lookup.route_messages")
        self._h_fetch_latency = deployment.metrics.histogram("fetch.latency_seconds")

    def client_for(self, user: str) -> _Client:
        client = self.clients.get(user)
        if client is None:
            node = self.deployment.node_names[
                self.rng.randrange(len(self.deployment.node_names))
            ]
            client = _Client(user, node, self.deployment.lookup_cache_for(user))
            self.clients[user] = client
        return client

    def _server_link(self, name: str) -> TokenBucket:
        bucket = self.server_links.get(name)
        if bucket is None:
            bucket = TokenBucket(self.bandwidth)
            self.server_links[name] = bucket
        return bucket

    # ------------------------------------------------------------------
    # warm-up (untimed) path

    def warm_record(
        self, user: str, fetches: Sequence[Tuple[int, int]], now: float
    ) -> None:
        """Touch caches as a pre-window read record would, without timing.

        *fetches* are the record's ``(key, nbytes)``; a fetch's buffer-cache
        identity is ``(key, position)``, as on the timed path.  The fetches
        the buffer cache does not absorb are looked up in the client's
        lookup cache in one :meth:`LookupCache.warm` call.
        """
        client = self.client_for(user)
        buffer_cache, ttl = client.buffer_cache, self.buffer_ttl
        keys: List[int] = []
        for position, (key, _) in enumerate(fetches):
            ident = (key, position)
            cached = buffer_cache.get(ident)
            if cached is not None and now - cached[0] < ttl:
                continue  # the identity holds the key: no other key can be cached here
            buffer_cache[ident] = (now, key)
            keys.append(key)
        if keys:
            client.lookup_cache.warm(keys, now, self.deployment.ring)

    # ------------------------------------------------------------------
    # timed path

    def fetch_latency(
        self, user: str, key: int, nbytes: int, ident: Hashable, now: float
    ) -> float:
        """Latency of one block fetch issued by *user* at absolute time *now*.

        Returns 0.0 when the client's buffer cache absorbs the access.
        """
        client = self.client_for(user)
        cached = client.buffer_cache.get(ident)
        if cached is not None and now - cached[0] < self.buffer_ttl and cached[1] == key:
            return 0.0
        client.buffer_cache[ident] = (now, key)

        spans = self.spans
        root = spans.start_trace("fetch", now, user=user, key=key, bytes=nbytes) if spans else None

        # One ring lookup: the replica group, whose first member is the owner.
        replicas = self.deployment.ring.successors(key, self.deployment.config.replica_count)
        owner = replicas[0]
        lookup_latency = 0.0
        lookup_span = spans.start_span("lookup", now, root) if root else None
        cache_owner = client.lookup_cache.probe(key, now, span=lookup_span)
        self.lookups += 1
        if cache_owner is None:
            lookup_latency = self._routed_lookup(client.node, key, now, parent=lookup_span)
            self._cache_owner_range(client, owner, now)
        elif cache_owner != owner:
            # Stale entry: one wasted round trip, then a real lookup.
            lookup_latency = self.latency.rtt(client.node, cache_owner)
            if lookup_span:
                stale_span = spans.start_span(
                    "lookup.stale_probe", now, lookup_span, node=cache_owner
                )
                spans.finish(stale_span, now + lookup_latency)
            client.lookup_cache.invalidate(key, span=lookup_span)
            lookup_latency += self._routed_lookup(
                client.node, key, now + lookup_latency, parent=lookup_span
            )
            self._cache_owner_range(client, owner, now)
        if lookup_span:
            spans.finish(lookup_span, now + lookup_latency)

        # Download from a random replica (Section 9.3: D2 selects replicas
        # randomly; baselines do the same for a fair comparison).
        server = replicas[self.rng.randrange(len(replicas))]
        download_start = now + lookup_latency
        arrival = download_start + self.latency.one_way(client.node, server)
        link = self._server_link(server)
        contention_done = link.reserve(arrival, nbytes)
        transfer_span = None
        if root:
            transfer_span = spans.start_span(
                "transfer", download_start, root, server=server, bytes=nbytes
            )
            request_span = spans.start_span(
                "net.request", download_start, transfer_span, frm=client.node, to=server
            )
            spans.finish(request_span, arrival)
        result = self.transport.transfer(
            server, client.node, nbytes, arrival,
            rate_bytes_per_sec=self.bandwidth, parent=transfer_span,
        )
        queued_finish = contention_done + self.latency.one_way(server, client.node)
        finish = max(arrival + result.duration, queued_finish)
        if transfer_span:
            if queued_finish > arrival + result.duration:
                queue_span = spans.start_span(
                    "queue.wait", arrival, transfer_span, server=server
                )
                spans.finish(queue_span, contention_done)
                response_span = spans.start_span(
                    "net.response", contention_done, transfer_span,
                    frm=server, to=client.node,
                )
                spans.finish(response_span, finish)
            spans.finish(transfer_span, finish)
        if root:
            spans.finish(root, finish)
        self._h_fetch_latency.observe(finish - now)
        return finish - now

    def _routed_lookup(self, source: str, key: int, now: float, parent=None) -> float:
        """Recursive lookup latency: hop legs plus the response leg."""
        spans = self.spans
        route_span = spans.start_span("dht.route", now, parent) if parent else None
        result = route(
            self.deployment.ring, source, key,
            tracer=spans if route_span else None, parent=route_span,
            now=now, leg_time=self.latency.one_way,
        )
        self.lookup_messages += result.messages
        self._h_route_messages.observe(result.messages)
        latency = self.latency.path_latency(result.path)
        response_leg = self.latency.one_way(result.path[-1], source)
        if route_span:
            route_span.annotate(hops=result.hops, owner=result.owner)
            response_span = spans.start_span(
                "dht.response", now + latency, route_span,
                frm=result.path[-1], to=source,
            )
            spans.finish(response_span, now + latency + response_leg)
            spans.finish(route_span, now + latency + response_leg)
        return latency + response_leg

    def _cache_owner_range(self, client: _Client, owner: str, now: float) -> None:
        lo, hi = self.deployment.ring.range_of(owner)
        client.lookup_cache.insert(lo, hi, owner, now)


def run_performance(
    trace: Trace,
    system: str,
    *,
    mode: str,
    n_nodes: int,
    bandwidth_kbps: float = 1500.0,
    windows: Optional[Sequence[Tuple[float, float]]] = None,
    n_windows: int = 4,
    seed: int = 0,
) -> PerformanceResult:
    """Measure access-group latencies for one system/mode/scale."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    config = D2Config(replica_count=4, access_bandwidth_bps=kbps(bandwidth_kbps))
    rng = random.Random(seed)
    deployment = harvard_deployment(trace, system, n_nodes, seed=seed, config=config)

    latency = LatencyModel.random(deployment.node_names, random.Random(seed + 7))
    harness = PerformanceHarness(
        deployment,
        latency,
        bandwidth_bps=config.access_bandwidth_bps,
        rng=random.Random(seed + 13),
    )

    if windows is None:
        windows = _choose_windows(trace, rng, n_windows, WINDOW_SECONDS)

    groups = segment_access_groups(trace)
    group_of: Dict[int, int] = {}
    for index, group in enumerate(groups):
        for record in group.records:
            group_of[id(record)] = index
    in_window = [
        any(start <= g.start < end for start, end in windows) for g in groups
    ]

    timings: List[GroupTiming] = []
    group_finishes: Dict[int, List[float]] = defaultdict(list)
    group_elapsed: Dict[int, float] = defaultdict(float)

    def measure(record: TraceRecord, outcome: ReplayOutcome) -> None:
        if record.op != READ or outcome.skipped:
            return
        index = group_of.get(id(record))
        user = record.user
        # A fetch's buffer-cache identity is (key, position in the read).
        # Keys alone are not enough: under traditional-file every block of a
        # file shares the file's key, yet each block is still a distinct
        # 8 KB unit the client must download once.
        if index is None or not in_window[index]:
            harness.warm_record(user, outcome.fetches, record.time)
            return
        for position, (key, nbytes) in enumerate(outcome.fetches):
            # In seq mode each fetch issues only after the previous one
            # finished, so its wall-clock start is staggered by the group's
            # elapsed latency; in para mode fetches issue together and
            # genuinely contend for server uplinks.
            issue = record.time + (group_elapsed[index] if mode == SEQ else 0.0)
            fetch_latency = harness.fetch_latency(user, key, nbytes, (key, position), issue)
            if fetch_latency > 0.0:
                group_finishes[index].append(fetch_latency)
                group_elapsed[index] += fetch_latency

    replay(deployment, trace, measure)

    for index, latencies in group_finishes.items():
        group = groups[index]
        timings.append(
            GroupTiming(
                user=group.user,
                start=group.start,
                fetches=len(latencies),
                completion=_group_completion(latencies, mode),
            )
        )

    per_user_rates: Dict[str, float] = {}
    hits = misses = 0
    for user, client in harness.clients.items():
        stats = client.lookup_cache.stats
        hits += stats.hits
        misses += stats.misses
        if stats.lookups:
            per_user_rates[user] = stats.miss_rate

    return PerformanceResult(
        system=system,
        mode=mode,
        n_nodes=n_nodes,
        bandwidth_bps=config.access_bandwidth_bps,
        group_timings=timings,
        lookup_messages=harness.lookup_messages,
        lookups=harness.lookups,
        cache_hits=hits,
        cache_misses=misses,
        per_user_miss_rate=per_user_rates,
        metrics=deployment.observability_snapshot(),
        trace=deployment.spans.to_dicts() if deployment.spans else None,
    )


def _group_completion(latencies: List[float], mode: str) -> float:
    """Completion time of an access group from its fetch latencies.

    ``seq`` sums them (each access waits for the previous); ``para`` issues
    them in waves bounded by the 15-transfer client cap — the simple wave
    model bounds the event-driven scheduler from above by less than one
    fetch time and keeps replay O(n).
    """
    if not latencies:
        return 0.0
    if mode == SEQ:
        return sum(latencies)
    if len(latencies) <= MAX_CONCURRENT_TRANSFERS:
        return max(latencies)
    total = 0.0
    for i in range(0, len(latencies), MAX_CONCURRENT_TRANSFERS):
        total += max(latencies[i : i + MAX_CONCURRENT_TRANSFERS])
    return total


def _choose_windows(
    trace: Trace, rng: random.Random, n_windows: int, window_seconds: float
) -> List[Tuple[float, float]]:
    """Random windows from working hours (9 AM – 6 PM), as in the paper."""
    if not trace.records:
        return []
    end_time = trace.records[-1].time
    candidates: List[float] = []
    day = 0
    while day * 86400.0 < end_time:
        base = day * 86400.0
        lo = base + 9 * 3600.0
        hi = base + 18 * 3600.0 - window_seconds
        if hi > lo:
            candidates.extend(rng.uniform(lo, hi) for _ in range(4))
        day += 1
    rng.shuffle(candidates)
    chosen = sorted(candidates[:n_windows])
    return [(start, start + window_seconds) for start in chosen]
