"""Microbenchmarks of the routing fast paths added for the scale engine.

Three comparisons, each also asserted as a shape claim so a regression
that silently disables the fast path fails the bench suite rather than
just slowing it down:

* cold (bisect-per-level reference) vs finger-table :func:`route`,
* single :func:`route` calls vs batched :func:`route_many`, on a batch
  whose keys share a few owners (one walk per owner) and on one whose
  owners are all distinct (nothing to share),
* finger-table construction cost (the price paid on the first lookups
  after a membership change; the change itself is untimed setup).
"""

import random
import time

from repro.dht.consistent_hashing import random_node_ids
from repro.dht.fingers import FingerTable
from repro.dht.keyspace import KEY_SPACE
from repro.dht.ring import Ring
from repro.dht.routing import route, route_cold, route_many


def build_ring(n, seed=0):
    ring = Ring()
    rng = random.Random(seed)
    for i, node_id in enumerate(random_node_ids(n, rng)):
        ring.join(f"n{i}", node_id)
    return ring, rng


def make_keys(rng, count=256):
    return [rng.randrange(KEY_SPACE) for _ in range(count)]


def test_route_cold_reference(benchmark):
    ring, rng = build_ring(1000)
    keys = make_keys(rng)

    def cold():
        for key in keys:
            route_cold(ring, "n0", key)

    benchmark(cold)


def test_route_finger_table(benchmark):
    ring, rng = build_ring(1000)
    keys = make_keys(rng)
    route(ring, "n0", keys[0])  # build the table outside the timed region

    def warm():
        for key in keys:
            route(ring, "n0", key)

    benchmark(warm)


def test_route_many_batched(benchmark):
    ring, rng = build_ring(1000)
    keys = make_keys(rng)
    route(ring, "n0", keys[0])

    benchmark(lambda: route_many(ring, "n0", keys))


def test_finger_table_rebuild(benchmark):
    """First lookups after a version bump: one lookup from each of 256
    sources over a table that has to re-derive every finger it visits.
    The bump (one node leaves and rejoins in place) is untimed setup."""
    ring, rng = build_ring(1000)
    keys = make_keys(rng)
    sources = [f"n{index}" for index in range(0, 1000, 4)][:256]
    mover, mover_id = "n999", ring.position_of("n999")

    def bump():
        ring.change_position(mover, mover_id)  # same ring, new version

    def first_lookups():
        for source, key in zip(sources, keys):
            route(ring, source, key)

    benchmark.pedantic(first_lookups, setup=bump, rounds=30)


def _best_of(runs, fn):
    """Minimum wall time over *runs* attempts — filters scheduler noise,
    which only ever makes a run slower, never faster."""
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_fast_paths_actually_faster():
    """Shape gate: finger-table route >= 5x cold; route_many >= route."""
    ring, rng = build_ring(2000, seed=3)
    keys = make_keys(rng, 4000)
    route(ring, "n0", keys[0])  # warm the table

    def warm_loop():
        for key in keys:
            route(ring, "n0", key)

    def cold_loop():
        for key in keys[:400]:
            route_cold(ring, "n0", key)

    warm_wall = _best_of(3, warm_loop)
    batched_wall = _best_of(3, lambda: route_many(ring, "n0", keys))
    cold_wall = _best_of(3, cold_loop) * (len(keys) / 400)

    assert cold_wall > 5 * warm_wall, (
        f"finger-table routing speedup collapsed: cold {cold_wall:.3f}s "
        f"vs warm {warm_wall:.3f}s"
    )
    assert batched_wall < warm_wall * 1.1, (
        f"route_many slower than single-key loop: {batched_wall:.3f}s "
        f"vs {warm_wall:.3f}s"
    )


def test_owner_sharing_gate(monkeypatch):
    """Shape gate on both sides of the per-batch owner dedup.

    ``route_many`` walks once per distinct owner.  Counted, not timed: a
    batch whose keys share 64 owners takes at most 64 walks where the
    single-key loop takes 4096, and a batch whose owners are all distinct
    takes one walk per key either way.  On the clock (measured 2.7-3.0x), the
    shared batch must beat the loop by >= 2x, and the all-distinct batch
    must not pay for the dedup: no slower than 1.1x that loop.
    """
    ring, rng = build_ring(1000, seed=5)
    ids = ring.positions()
    hot = [ids[rng.randrange(len(ids))] for _ in range(64)]
    # Keys just below a hot node's id are owned by that node.
    shared = [(rng.choice(hot) - rng.randrange(1, 1 << 64)) % KEY_SPACE
              for _ in range(4096)]
    big_ring, big_rng = build_ring(10_000, seed=6)
    big_ids = big_ring.positions()
    distinct = [(big_ids[index] - 1) % KEY_SPACE
                for index in big_rng.sample(range(len(big_ids)), 4096)]
    assert len({ring.successor(key) for key in shared}) <= 64
    assert len({big_ring.successor(key) for key in distinct}) == 4096

    def loop(over, keys):
        for key in keys:
            route(over, "n0", key)

    cases = (
        lambda: loop(ring, shared),
        lambda: route_many(ring, "n0", shared),
        lambda: loop(big_ring, distinct),
        lambda: route_many(big_ring, "n0", distinct),
    )

    walks = []
    real_walk = FingerTable.walk

    def counted_walk(*args):
        walks.append(1)
        return real_walk(*args)

    with monkeypatch.context() as patch:
        patch.setattr(FingerTable, "walk", counted_walk)
        counts = []
        for fn in cases:  # also builds the visited fingers untimed
            del walks[:]
            fn()
            counts.append(len(walks))
    assert counts[0] == counts[2] == counts[3] == 4096 and counts[1] <= 64, (
        f"walks per 4096-key batch (shared loop, shared batch, distinct "
        f"loop, distinct batch): {counts}"
    )

    # Interleaved, so a host slowdown lands on both sides of each ratio.
    walls = [float("inf")] * 4
    for _ in range(7):
        for slot, fn in enumerate(cases):
            walls[slot] = min(walls[slot], _best_of(1, fn))
    shared_loop, shared_batch, distinct_loop, distinct_batch = walls

    assert shared_loop > 2 * shared_batch, (
        f"route_many no longer shares walks between keys of one owner: "
        f"loop {shared_loop:.4f}s vs batch {shared_batch:.4f}s"
    )
    assert distinct_batch < distinct_loop * 1.1, (
        f"route_many slower than the loop on all-distinct owners: "
        f"{distinct_batch:.4f}s vs {distinct_loop:.4f}s"
    )
