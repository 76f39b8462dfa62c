"""Microbenchmarks of the learned key-range -> node index (PR-8 tier).

Two kinds of claims, mirroring ``bench_micro_route.py``:

* timing rows (pytest-benchmark) for trained prediction, the full learned
  lookup hit path, and online training throughput, and
* shape gates — a trained learned hit must stay >= 2x faster than the
  cold (bisect-per-level, ``tests/oracles.py``) routed lookup it replaces
  at 10^4 nodes, and a mispredicted lookup's fallback ``LookupResult``
  must be byte-identical to plain :func:`repro.dht.routing.route` — so a regression that quietly
  breaks the model fails the bench suite instead of just slowing it down.
"""

import random
import time

from repro.dht.consistent_hashing import random_node_ids
from repro.dht.keyspace import KEY_SPACE
from repro.dht.learned import LearnedIndex
from repro.dht.ring import Ring
from repro.dht.routing import route
from tests.oracles import route_cold


def build_ring(n, seed=0):
    ring = Ring()
    rng = random.Random(seed)
    for i, node_id in enumerate(random_node_ids(n, rng)):
        ring.join(f"n{i}", node_id)
    return ring, rng


def make_keys(rng, count=256):
    return [rng.randrange(KEY_SPACE) for _ in range(count)]


def trained_index(ring, rng, observations=4096, seed=1):
    """A learned index warmed with *observations* ground-truth pairs."""
    index = LearnedIndex(ring, seed=seed)
    index.refresh()  # snapshot the ring before feeding observations
    for _ in range(observations):
        key = rng.randrange(KEY_SPACE)
        index.observe(key, ring.successor_index(key))
    assert index.trained
    return index


def test_learned_predict(benchmark):
    ring, rng = build_ring(1000)
    index = trained_index(ring, rng)
    keys = make_keys(rng)

    def predict():
        for key in keys:
            index.predict(key)

    benchmark(predict)


def test_learned_lookup_hit_path(benchmark):
    ring, rng = build_ring(1000)
    index = trained_index(ring, rng)
    keys = make_keys(rng)

    def lookup():
        for key in keys:
            index.lookup("n0", key)

    benchmark(lookup)


def test_learned_online_training(benchmark):
    """Cost of feeding observations (reservoir + periodic refits)."""
    ring, rng = build_ring(1000)
    keys = make_keys(rng, 4096)
    owners = [ring.successor_index(key) for key in keys]

    def train():
        index = LearnedIndex(ring, seed=1)
        for key, owner in zip(keys, owners):
            index.observe(key, owner)

    benchmark(train)


def _best_of(runs, fn):
    """Minimum wall time over *runs* attempts — filters scheduler noise,
    which only ever makes a run slower, never faster."""
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_learned_hit_beats_cold_routing():
    """Shape gate: learned hits >= 2x faster than cold routing at 10^4."""
    ring, rng = build_ring(10_000, seed=3)
    index = trained_index(ring, rng, observations=8192)
    keys = make_keys(rng, 2000)
    # Only time actual hits — mispredicts pay for routing by design.
    hits = [key for key in keys if index.lookup("n0", key).hit]
    assert len(hits) > len(keys) // 2, (
        f"model too weak to benchmark: {len(hits)}/{len(keys)} hits"
    )

    def learned_loop():
        for key in hits:
            index.lookup("n0", key)

    def cold_loop():
        for key in hits[:200]:
            route_cold(ring, "n0", key)

    learned_wall = _best_of(3, learned_loop)
    cold_wall = _best_of(3, cold_loop) * (len(hits) / 200)

    assert cold_wall > 2 * learned_wall, (
        f"learned-hit speedup collapsed: cold {cold_wall:.3f}s "
        f"vs learned {learned_wall:.3f}s over {len(hits)} hits"
    )


def test_mispredict_fallback_byte_identical():
    """Shape gate: every non-hit lookup returns exactly ``route(...)``."""
    ring, rng = build_ring(2000, seed=5)
    index = trained_index(ring, rng, observations=2048)
    checked = 0
    for key in make_keys(rng, 2000):
        outcome = index.lookup("n37", key)
        if outcome.hit:
            continue
        reference = route(ring, "n37", key)
        assert outcome.result == reference, (
            f"fallback diverged from route() for key {key}"
        )
        assert outcome.extra_messages == (1 if outcome.predicted else 0)
        checked += 1
    # The gate is vacuous if the model never mispredicts at this scale.
    assert checked > 0, "no fallback lookups exercised"
