"""Microbenchmark: span tracing overhead, disabled and enabled path.

The satellite contract for the tracing subsystem is that a deployment
running with tracing off (``REPRO_TRACE_SAMPLE=0`` → a falsy :class:`Tracer`)
pays only a truthiness check at each instrumentation site, keeping a
fig16-style replay loop within a couple percent of fully untraced code.
Wall-clock asserts on shared CI boxes are noisy, so the hard assert is
generous (25%) while the printed ratio is what a human (or perf
regression sweep) reads against the < 2% design target.

On the enabled path the contract is that a span's start+finish cost does
not depend on how many spans the ring buffer holds (a ratio gate, so it
is insensitive to the speed of the box).

For events the contract is counted, not timed: an emit is a count, so it
allocates nothing that outlives the call, however long the run.
"""

import gc
import sys
import time

from repro.core.system import build_deployment
from repro.obs.events import EVENT_KINDS, EventTracer
from repro.obs.spans import Tracer


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
            lambda d: Tracer(sample=1.0, seed=0)
        )
        traced_times.append(elapsed)
    assert null_moves == traced_moves  # tracing must not perturb behavior
    assert traced.spans.counts().get("balance.move", 0) >= 1

    null_best, traced_best = min(null_times), min(traced_times)
    ratio = null_best / traced_best if traced_best else 1.0
    print(f"\nnull-tracer / full-tracer best-of-3: {ratio:.4f} "
          f"(null {null_best:.3f}s, traced {traced_best:.3f}s)")
    # Design target < 2%; hard gate is loose for noisy shared runners.
    # The *disabled* path must never be slower than the fully-traced one
    # by more than noise.
    assert null_best <= traced_best * 1.25

    # Statistical timing of the pure instrumentation-site cost: a null
    # tracer start/finish pair is just two truthiness checks.
    tracer = Tracer(sample=0.0)

    def disabled_sites():
        for i in range(1000):
            if tracer:
                span = tracer.start_trace("fetch", float(i))
                tracer.finish(span, float(i))

    benchmark(disabled_sites)


def test_null_tracer_allocates_nothing_per_span():
    from repro.obs.spans import NULL_SPAN

    tracer = Tracer(sample=0.0)
    spans = {id(tracer.start_trace("op", float(i))) for i in range(100)}
    assert spans == {id(NULL_SPAN)}  # one shared singleton, zero allocation
    children = {id(tracer.start_span("c", 0.0, NULL_SPAN)) for _ in range(100)}
    assert children == {id(NULL_SPAN)}


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
    small = Tracer(capacity=64, sample=1.0, seed=0)
    full = Tracer(capacity=4096, sample=1.0, seed=0)
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
    tracer = EventTracer()
    kinds = sorted(EVENT_KINDS)
    for kind in kinds:
        tracer.emit(kind)
    gc.collect()
    size = sys.getsizeof(tracer._counts)
    objects = len(gc.get_objects())
    for i in range(10_000):
        tracer.emit(kinds[i % len(kinds)])
    assert len(gc.get_objects()) == objects
    assert sys.getsizeof(tracer._counts) == size and len(vars(tracer)) == 2
    assert tracer.emitted == 10_000 + len(kinds)
    assert sum(tracer.counts().values()) == tracer.emitted
    assert tracer.counts()[kinds[0]] == 1 + len(range(0, 10_000, len(kinds)))
