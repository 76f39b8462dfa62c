"""Million-user scale harness: routing and read hot paths at large N.

The figure/table experiments run at laptop scale (tens to hundreds of
nodes, eight users).  This module measures the engine itself at the
paper's deployed scale and beyond — 10^3..10^4 ring nodes, 10^5 cloned
users — and reports throughput plus peak memory so regressions in the
hot paths (finger-table routing, batched reads, streaming export) show
up as numbers in ``BENCH_scale.json`` rather than as anecdotes.

Two cell shapes:

* **routing** — a bare :class:`~repro.dht.ring.Ring` and a seeded uniform
  key stream; batched :func:`~repro.dht.routing.route_many` over the
  precomputed finger table is timed against the pre-finger-table
  reference implementation (:func:`~repro.dht.routing.route_cold`) on a
  subset, yielding the recorded speedup.
* **read** — a full :class:`~repro.core.system.Deployment` with a
  replicated initial image; a read stream cloned in shared blocks
  (:func:`~repro.workloads.scale.scaled_read_stream`) is replayed in
  fixed windows.  A window repeats few distinct requests many times, so
  it is counted once and costs one C-level pass over its ops plus one
  ``route_many`` route per *distinct* request, folded by multiplicity; a
  request is planned (:meth:`Deployment.read_fetches_many`) once a run,
  in the first window that holds it.  Per-window metrics rows and
  finished spans go to JSONL writers, so peak RSS is flat in run length.

Determinism contract: every field of
:meth:`ScaleCellResult.deterministic_row` is a pure function of the cell
parameters (work checksums, hop/message/fetch totals) and is compared
byte-for-byte between serial and parallel runs in CI.  Wall-clock and
RSS live in separate *measured* fields that never enter that comparison.
Only ``time.perf_counter`` and ``resource.getrusage`` are read — both
sanctioned under the determinism sanitizer (``REPRO_DETSAN=1``).
"""

from __future__ import annotations

import hashlib
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import mul
from random import Random
from typing import Dict, List, Sequence, Tuple

from repro.dht.consistent_hashing import KEY_SPACE, random_node_ids
from repro.dht.ring import Ring
from repro.dht.routing import LookupResult, finger_table_for, route_cold, route_many
from repro.fs.namespace import NamespaceError
from repro.obs.stream import NullJsonlWriter, stream_spans
from repro.workloads.scale import ReadRequest, Request, scaled_read_stream
from repro.workloads.trace import READ, Trace


def _rss_kb() -> int:
    """Process peak RSS in KB (``ru_maxrss`` is KB on Linux)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass
class ScaleCellResult:
    """One scale cell: a deterministic work fingerprint plus measurements.

    ``deterministic_row`` fields depend only on the parameter bundle;
    the measured fields (wall-clock, throughput, RSS) vary run to run
    and are excluded from the serial-vs-parallel identity check.
    """

    cell: str                 # "routing" | "read"
    n_nodes: int
    users: int                # distinct principals replayed (0 for routing)
    ops: int
    hops: int
    messages: int
    fetches: int              # DHT block fetches issued (0 for routing)
    skipped: int              # template reads dropped (missing paths)
    windows: int
    checksum: str             # sha256 over the owner sequence, first 16 hex
    streamed_rows: int        # metrics rows streamed to JSONL
    streamed_spans: int       # spans streamed to JSONL
    streamed_health: int = 0  # health series/alert rows streamed to JSONL
    # --- measured (excluded from the determinism contract) ---
    wall_seconds: float = 0.0
    ops_per_sec: float = 0.0
    peak_rss_kb: int = 0
    rss_curve_kb: List[int] = field(default_factory=list)
    cold_wall_seconds: float = 0.0
    cold_ops: int = 0
    speedup_vs_cold: float = 0.0

    def deterministic_row(self) -> Dict[str, object]:
        return {
            "cell": self.cell,
            "n_nodes": self.n_nodes,
            "users": self.users,
            "ops": self.ops,
            "hops": self.hops,
            "messages": self.messages,
            "fetches": self.fetches,
            "skipped": self.skipped,
            "windows": self.windows,
            "checksum": self.checksum,
            "streamed_rows": self.streamed_rows,
            "streamed_spans": self.streamed_spans,
            "streamed_health": self.streamed_health,
        }

    def row(self) -> Dict[str, object]:
        full = self.deterministic_row()
        full.update(
            wall_seconds=round(self.wall_seconds, 4),
            ops_per_sec=round(self.ops_per_sec, 1),
            peak_rss_kb=self.peak_rss_kb,
            rss_curve_kb=list(self.rss_curve_kb),
            cold_wall_seconds=round(self.cold_wall_seconds, 4),
            cold_ops=self.cold_ops,
            speedup_vs_cold=round(self.speedup_vs_cold, 2),
        )
        return full

    @property
    def rss_growth_kb(self) -> int:
        """Peak-RSS growth across the second half of the replay windows.

        Streaming export makes peak memory independent of run length, so
        once the working set is warm (first half of the windows) the
        high-water mark should stop moving.  Flat = 0.
        """
        if len(self.rss_curve_kb) < 2:
            return 0
        half = len(self.rss_curve_kb) // 2
        tail = self.rss_curve_kb[half:]
        return tail[-1] - tail[0]


def _fold_routes(digest, results: Sequence[LookupResult], times, owners) -> int:
    """Hops of one routed batch in which ``results[i]`` answers ``times[i]`` ops.

    *owners* is every op's owner, in op order; *digest* takes them in one
    update (SHA-256 of a concatenation is the SHA-256 of its pieces in order).
    """
    digest.update("".join(owners).encode("ascii"))
    return sum(map(mul, times, [len(result.path) - 1 for result in results]))


def run_scale_routing(
    *,
    n_nodes: int,
    ops: int,
    batch: int = 4096,
    cold_ops: int = 2000,
    seed: int = 11,
) -> ScaleCellResult:
    """Time batched finger-table routing on an *n_nodes* ring.

    A seeded uniform key stream is routed in batches of *batch* via
    :func:`route_many`; the first ``min(cold_ops, ops)`` keys are then
    re-routed with :func:`route_cold` (the pre-finger-table reference
    path, which re-derives every finger by bisect at every hop) to
    compute ``speedup_vs_cold``.  Both passes produce identical paths —
    the equivalence is asserted in tests, not here — so the checksum
    covers the batched pass only.
    """
    if ops <= 0:
        raise ValueError(f"ops must be positive, got {ops}")
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    rng = Random(seed)
    ring = Ring()
    for index, node_id in enumerate(random_node_ids(n_nodes, rng)):
        ring.join(f"node{index:05d}", node_id)
    names = finger_table_for(ring).names
    key_rng = Random(seed + 1)
    keys = [key_rng.randrange(KEY_SPACE) for _ in range(ops)]
    sources = [names[key_rng.randrange(len(names))] for _ in range(0, ops, batch)]

    digest = hashlib.sha256()
    hops = 0
    started = time.perf_counter()
    for window, lo in enumerate(range(0, ops, batch)):
        results = route_many(ring, sources[window], keys[lo:lo + batch])
        owners = [result.owner for result in results]
        hops += _fold_routes(digest, results, repeat(1), owners)
    wall = time.perf_counter() - started
    messages = hops + ops  # one response per lookup

    cold_n = min(cold_ops, ops)
    cold_wall = 0.0
    if cold_n > 0:
        cold_source = sources[0]
        cold_started = time.perf_counter()
        for key in keys[:cold_n]:
            route_cold(ring, cold_source, key)
        cold_wall = time.perf_counter() - cold_started

    rate = ops / wall if wall > 0 else 0.0
    cold_rate = cold_n / cold_wall if cold_wall > 0 else 0.0
    return ScaleCellResult(
        cell="routing",
        n_nodes=n_nodes,
        users=0,
        ops=ops,
        hops=hops,
        messages=messages,
        fetches=0,
        skipped=0,
        windows=-(-ops // batch),
        checksum=digest.hexdigest()[:16],
        streamed_rows=0,
        streamed_spans=0,
        wall_seconds=wall,
        ops_per_sec=rate,
        peak_rss_kb=_rss_kb(),
        cold_wall_seconds=cold_wall,
        cold_ops=cold_n,
        speedup_vs_cold=rate / cold_rate if cold_rate > 0 else 0.0,
    )


def _read_template(deployment, trace: Trace) -> Tuple[List[ReadRequest], int]:
    """READ records of *trace* whose paths resolve in the loaded image.

    The scale replay is read-only over the initial image, so reads of
    files created mid-trace (or of directories) are skipped — counted,
    deterministically, in the second return value.
    """
    resolve = deployment.fs.namespace.resolve_file
    template: List[ReadRequest] = []
    skipped = 0
    for record in trace.records:
        if record.op != READ:
            continue
        try:
            resolve(record.path)
        except NamespaceError:
            skipped += 1
            continue
        template.append((record.user, record.path, record.offset, record.length))
    return template, skipped


def run_scale_read(
    deployment,
    trace: Trace,
    *,
    copies: int,
    users: int,
    ops_per_user: int = 10,
    window: int = 8192,
    seed: int = 11,
    span_writer=None,
    metrics_writer=None,
    health_writer=None,
) -> ScaleCellResult:
    """Replay a cloned read stream, each window folded per distinct request.

    *deployment* must already hold the (replicated) initial image of
    *trace*; *copies* is the number of extra ``/replicaN`` images it
    contains.  The base users are cloned up to at least *users* distinct
    principals, each replaying *ops_per_user* reads.  Work proceeds in
    fixed *window*-sized batches.  A window's ``(path, offset, length)``
    requests are counted once; the distinct ones not met in an earlier
    window are resolved with :meth:`Deployment.read_fetches_many`, and the
    inode keys of all the distinct ones routed with :func:`route_many` from
    a window-seeded source node.  A request seen *n* times adds *n* times
    its hops, messages and fetches, and the checksum takes every op's owner
    in op order — the row of a per-op replay (``fold_reads_per_op`` in
    ``tests/oracles.py``).

    A plan, ``request -> (inode key, fetch count)``, outlives its window
    because the replay only reads: between windows nothing fires but the
    ticks and the health samples, and neither touches the namespace.  The
    plans are still tied to ``deployment.fs.root_version``, which every
    flush bumps — if a scheduled callback did write, they are dropped and
    made again.  Routes are not kept: the source node is drawn per window.

    Each window streams one metrics row to *metrics_writer* and any
    finished spans to *span_writer*, and advances simulated time by one
    second — the per-window ticks are pre-scheduled in one
    :meth:`Simulator.schedule_batch` call and sample the RSS curve.

    When the deployment carries a health monitor
    (:meth:`Deployment.enable_health_monitoring`, one-sim-second windows
    line up with the replay cadence), its closed series/alert rows are
    drained to *health_writer* every window, so health export is flat in
    run length exactly like spans and metrics.
    """
    if ops_per_user <= 0:
        raise ValueError(f"ops_per_user must be positive, got {ops_per_user}")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if users <= 0:
        raise ValueError(f"users must be positive, got {users}")
    loaded = 0
    while deployment.fs.namespace.exists(f"/replica{loaded + 1}"):
        loaded += 1
    if not 0 <= copies <= loaded:
        raise ValueError(f"copies must be in [0, {loaded}] (images loaded), got {copies}")
    span_writer = span_writer if span_writer is not None else NullJsonlWriter()
    metrics_writer = (
        metrics_writer if metrics_writer is not None else NullJsonlWriter()
    )
    health_writer = (
        health_writer if health_writer is not None else NullJsonlWriter()
    )
    template, skipped = _read_template(deployment, trace)
    base_users = max(1, len(trace.users()))
    clones = -(-users // base_users)
    per_clone = min(ops_per_user, len(template)) if template else 0
    total_ops = clones * per_clone
    n_windows = -(-total_ops // window) if total_ops else 0

    # Pre-schedule one tick per window in a single batch; each tick
    # samples the RSS high-water mark from *inside* the event loop.
    rss_curve: List[int] = []
    deployment.sim.schedule_batch(
        (float(index + 1), lambda: rss_curve.append(_rss_kb()))
        for index in range(n_windows)
    )

    ring = deployment.ring
    names = finger_table_for(ring).names
    source_rng = Random(seed + 2)
    stream = scaled_read_stream(
        template, clones=clones, ops_per_clone=per_clone, copies=copies
    ) if template else iter(())

    digest = hashlib.sha256()
    ops = hops = messages = fetches = 0
    spans_streamed = 0
    plans: Dict[Request, Tuple[int, int]] = {}  # request -> (inode key, fetch count)
    planned_at = deployment.fs.root_version
    base_time = deployment.sim.now
    started = time.perf_counter()
    for index in range(n_windows):
        requests = list(islice(stream, window))
        counts = Counter(requests)  # distinct requests, first seen first
        if deployment.fs.root_version != planned_at:  # a flush since: re-plan
            plans.clear()
            planned_at = deployment.fs.root_version
        unplanned = [request for request in counts if request not in plans]
        if unplanned:  # every fetch list starts with the file's inode block
            fetch_lists = deployment.read_fetches_many(unplanned)
            plans.update(zip(unplanned, [(fetch[0][0], len(fetch)) for fetch in fetch_lists]))
        inode_keys, fetch_counts = zip(*map(plans.__getitem__, counts))
        source = names[source_rng.randrange(len(names))]
        results = route_many(ring, source, inode_keys)
        owner_of = dict(zip(counts, [result.owner for result in results]))
        owners = map(owner_of.__getitem__, requests)
        hops += _fold_routes(digest, results, counts.values(), owners)
        ops += len(requests)
        messages = hops + ops  # one response per lookup
        fetches += sum(map(mul, counts.values(), fetch_counts))
        deployment.advance_to(base_time + float(index + 1))
        spans_streamed += stream_spans(deployment.spans, span_writer)
        if deployment.health is not None:
            for health_row in deployment.health.drain():
                health_writer.write(health_row)
        metrics_writer.write(
            {
                "window": index,
                "ops": len(requests),
                "fetches": fetches,
                "hops": hops,
                "messages": messages,
                "sim_now": deployment.sim.now,
                "rss_kb": rss_curve[-1] if rss_curve else _rss_kb(),
            }
        )
    wall = time.perf_counter() - started
    if deployment.health is not None:
        for health_row in deployment.health.finish():
            health_writer.write(health_row)

    return ScaleCellResult(
        cell="read",
        n_nodes=len(ring),
        users=clones * base_users,
        ops=ops,
        hops=hops,
        messages=messages,
        fetches=fetches,
        skipped=skipped,
        windows=n_windows,
        checksum=digest.hexdigest()[:16],
        streamed_rows=metrics_writer.rows,
        streamed_spans=spans_streamed,
        streamed_health=health_writer.rows,
        wall_seconds=wall,
        ops_per_sec=ops / wall if wall > 0 else 0.0,
        peak_rss_kb=_rss_kb(),
        rss_curve_kb=rss_curve,
    )
