"""Microbenchmark: span tracing overhead, disabled and enabled path.

The contract for the tracing subsystem is that a deployment keeping no
span objects (``REPRO_TRACE_SAMPLE=0``) pays one tracer call per root at
each instrumentation site — the bump of its exact root count — and
nothing per child, keeping a fig16-style replay loop within a couple
percent of untraced code.
Wall-clock asserts on shared CI boxes are noisy, so the hard assert is
generous (25%) while the printed ratio is what a human (or perf
regression sweep) reads against the < 2% design target.

On the enabled path the contract is that a span's start+finish cost does
not depend on how many spans the ring buffer holds (a ratio gate, so it
is insensitive to the speed of the box).

For events the contract is counted, not timed: an emit is a count, so it
allocates nothing that outlives the call, however long the run, and the
event tracer reads the registry's counters, so it does not grow with the
number of components feeding them.
"""

import gc
import sys
import time

from repro.core.lookup_cache import LookupCache
from repro.core.system import build_deployment
from repro.obs.events import KINDS, EventTracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from tests.oracles import span_counts


def _balance_workload(deployment, files=60):
    """A fig16-flavored hot loop: create files, then balance to stable."""
    deployment.bootstrap_volume()
    for i in range(files):
        deployment.apply_fs_ops(deployment.fs.create(f"/f{i}.dat", size=16_000))
    deployment.stabilize(max_rounds=60)
    return deployment.store.moves_executed


def _timed_run(spans_factory):
    deployment = build_deployment("d2", 24, seed=11)
    deployment.spans = spans_factory(deployment)
    deployment.store.spans = deployment.spans
    if deployment.balancer is not None:
        deployment.balancer._spans = deployment.spans
    started = time.perf_counter()
    moves = _balance_workload(deployment)
    return time.perf_counter() - started, moves, deployment


def test_disabled_tracing_overhead_is_negligible(benchmark):
    # Interleave to keep cache/thermal drift symmetric between variants.
    null_times, traced_times = [], []
    for _ in range(3):
        elapsed, null_moves, _ = _timed_run(lambda d: Tracer(sample=0.0))
        null_times.append(elapsed)
        elapsed, traced_moves, traced = _timed_run(
            lambda d: Tracer(sample=1.0)
        )
        traced_times.append(elapsed)
    assert null_moves == traced_moves  # tracing must not perturb behavior
    assert span_counts(traced.spans).get("balance.move", 0) >= 1

    null_best, traced_best = min(null_times), min(traced_times)
    ratio = null_best / traced_best if traced_best else 1.0
    print(f"\nnull-tracer / full-tracer best-of-3: {ratio:.4f} "
          f"(null {null_best:.3f}s, traced {traced_best:.3f}s)")
    # Design target < 2%; hard gate is loose for noisy shared runners.
    # The *disabled* path must never be slower than the fully-traced one
    # by more than noise.
    assert null_best <= traced_best * 1.25

    # Statistical timing of the pure instrumentation-site cost: an
    # unsampled root is one call, which counts it, and one ``None`` test.
    tracer = Tracer(sample=0.0)

    def disabled_sites():
        for i in range(1000):
            span = tracer.start_trace("fetch", float(i))
            if span is not None:
                tracer.finish(span, float(i))

    benchmark(disabled_sites)


def test_null_tracer_allocates_nothing_per_span():
    # An unsampled root is None and leaves nothing behind but its count.
    tracer = Tracer(sample=0.0)
    spans = {tracer.start_trace("op", float(i)) for i in range(100)}
    spans |= {tracer.instant("op", float(i)) for i in range(100)}
    assert {tracer.start_span("c", 0.0, None) for _ in range(100)} == spans == {None}
    assert tracer.started == len(tracer) == 0
    assert tracer.roots_started == tracer.roots_finished == 200


def _per_span_seconds(tracer, spans=2000):
    """Best-of-5 host seconds per root-plus-child start+finish on *tracer*."""
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        for i in range(spans):
            root = tracer.start_trace("fetch", float(i))
            tracer.finish(tracer.start_span("lookup", float(i), root), float(i))
            tracer.finish(root, float(i))
        best = min(best, time.perf_counter() - started)
    return best / spans


def test_enabled_span_cost_is_independent_of_buffer_fill():
    # Start/finish are O(1) — ids and counts, never a look at the buffer — so
    # a full 4096-span ring buffer costs what a 64-span one does.  When every
    # root finish walked the buffer this ratio measured 24x (106 us vs 4.4).
    small = Tracer(capacity=64, sample=1.0)
    full = Tracer(capacity=4096, sample=1.0)
    for i in range(full.capacity):
        full.finish(full.start_trace("warm", float(i)), float(i))
    assert len(full) == full.capacity
    small_s, full_s = _per_span_seconds(small), _per_span_seconds(full)
    print(f"\nper traced op: capacity 64 {small_s * 1e6:.2f} us, "
          f"full 4096 {full_s * 1e6:.2f} us, ratio {full_s / small_s:.2f}")
    assert full_s <= small_s * 3.0


def test_emit_retains_nothing():
    # An event is a typed count.  Once every kind has been seen, 10 000
    # more emits leave the process's tracked objects and the tracer's own
    # size where they were, and the counts exact.
    tracer = EventTracer(MetricsRegistry(), Tracer(sample=1.0))
    kinds = sorted(KINDS)
    for kind in kinds:
        tracer.emit(kind)
    gc.collect()
    size = sys.getsizeof(tracer._emitted)
    objects = len(gc.get_objects())
    for i in range(10_000):
        tracer.emit(kinds[i % len(kinds)])
    assert len(gc.get_objects()) == objects
    assert sys.getsizeof(tracer._emitted) == size and len(vars(tracer)) == 3
    assert tracer.emitted == 10_000 + len(kinds)
    assert sum(tracer.counts().values()) == tracer.emitted
    assert tracer.counts()[kinds[0]] == 1 + len(range(0, 10_000, len(kinds)))


def test_caches_leave_the_event_tracer_as_it_was():
    # The event tracer reads the registry's counters: 1 000 client caches
    # on a deployment's registry add nothing to it and no event, and their
    # probes show in its counts through the ``lookup.*`` counters alone.
    deployment = build_deployment("d2", 8, seed=1)
    tracer = deployment.tracer
    gc.collect()
    size = {name: sys.getsizeof(value) for name, value in vars(tracer).items()}
    counts = tracer.counts()
    caches = [LookupCache(ttl=10.0, registry=deployment.metrics) for _ in range(1_000)]
    gc.collect()
    assert {name: sys.getsizeof(value) for name, value in vars(tracer).items()} == size
    assert tracer.counts() == counts
    for cache in caches:
        cache.probe(5, now=0.0)
    assert tracer.counts() == {**counts, "lookup.miss": 1_000}
    assert tracer.emitted == sum(counts.values()) + 1_000
