"""Hybrid replica placement (the paper's Section 11 future work).

D2's closing discussion names two weaknesses of pure locality placement:

* **security** — node IDs are not secure hashes, so an attacker can join
  at chosen positions and capture *every* replica of a victim's arc;
* **large files** — all blocks of a file share one replica group, so a
  bulk read can use at most ``r`` uploaders.

It then suggests that "a combination of locality preserving and consistent
hashing replica placement could safeguard data and enable high performance
operations on small and large files".  This module implements that hybrid:

* the **primary** replica stays at the locality-preserving key — lookups,
  range caching, and sequential reads keep all of D2's benefits;
* the remaining ``r - 1`` **secondary** replicas are placed at salted
  *hashes* of the key, scattering them uniformly — a captured or failed
  arc never holds more than one replica of anything, and a bulk reader can
  fan out across ``(r - 1) x blocks`` distinct uploaders.

The cost is that secondary replicas lose locality: replica maintenance
touches scattered nodes, and a client that fails over to a secondary pays
a fresh lookup.  The extension benchmark quantifies both sides.

A subtlety the paper's sketch misses: hashing a key to a ring *position*
(the obvious construction) degenerates under D2's own load balancer.
Karger-Ruhl balancing concentrates node IDs inside the occupied key arcs,
leaving most of the ring empty — so nearly every uniform hash position
falls in the empty region and resolves to the *one* node owning it.  The
default here therefore hashes to a node *rank* (an index into the ring
membership), which stays uniform over nodes no matter how their positions
are distributed; the naive position-based variant is kept as
``mode="position"`` so the degeneracy can be measured.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Set

from repro.dht.consistent_hashing import salted_key
from repro.dht.ring import Ring


def secondary_positions(key: int, replicas: int) -> List[int]:
    """Ring positions of the ``replicas - 1`` hashed secondary replicas.

    Each secondary gets an independent salted hash so that losing one
    region of the ring can cost at most one replica.
    """
    return [
        salted_key(f"hybrid-replica:{index}:", key)
        for index in range(1, replicas)
    ]


def hybrid_replica_nodes(
    ring: Ring, key: int, replicas: int, *, mode: str = "rank"
) -> List[str]:
    """The nodes holding *key* under hybrid placement, primary first.

    ``mode="rank"`` (default) maps each secondary hash to a node *rank*
    (uniform over the membership regardless of ID clustering);
    ``mode="position"`` maps it to a ring position (the naive construction,
    which degenerates once balancing has clustered node IDs — kept for the
    extension experiment).  Collisions walk to the next distinct node, so
    the set always has ``min(replicas, n)`` members.
    """
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    if mode not in ("rank", "position"):
        raise ValueError(f"unknown hybrid mode {mode!r}")
    holders: List[str] = [ring.successor(key)]
    seen: Set[str] = set(holders)
    names = list(ring.names())
    target = min(replicas, len(ring))
    for digest in secondary_positions(key, replicas):
        if len(holders) == target:
            break
        if mode == "rank":
            candidate = names[digest % len(names)]
        else:
            candidate = ring.successor(digest)
        hops = 0
        while candidate in seen and hops < len(names):
            candidate = ring.successor_of(candidate)
            hops += 1
        if candidate not in seen:
            holders.append(candidate)
            seen.add(candidate)
    return holders


def arc_capture_exposure(
    ring: Ring,
    keys: Sequence[int],
    replicas: int,
    *,
    placement: str,
    arc_nodes: int,
    trials: int = 200,
    rng: random.Random,
) -> float:
    """Fraction of keys an adversary capturing a random run of
    ``arc_nodes`` consecutive nodes would fully control.

    Under pure locality placement a captured run of >= r consecutive nodes
    owns every replica of the keys in its arc; under hybrid placement it
    can own the primary but almost never the scattered secondaries.  This
    is the Section 11 security concern made measurable.
    """
    names = list(ring.names())
    n = len(names)
    captured_fraction = 0.0
    for _ in range(trials):
        start = rng.randrange(n)
        captured = {names[(start + i) % n] for i in range(min(arc_nodes, n))}
        owned = 0
        for key in keys:
            holders = placement_holders(ring, key, replicas, placement)
            if all(h in captured for h in holders):
                owned += 1
        captured_fraction += owned / len(keys)
    return captured_fraction / trials


def placement_holders(ring: Ring, key: int, replicas: int, placement: str) -> List[str]:
    """Replica holders of *key* under a named placement policy."""
    if placement == "locality":
        return ring.successors(key, replicas)
    if placement == "hybrid":
        return hybrid_replica_nodes(ring, key, replicas, mode="rank")
    if placement == "hybrid-position":
        return hybrid_replica_nodes(ring, key, replicas, mode="position")
    raise ValueError(f"unknown placement {placement!r}")


def parallel_read_fanout(
    ring: Ring, keys: Sequence[int], replicas: int, *, placement: str
) -> int:
    """Distinct uploaders available to a reader fetching all *keys* at once.

    A reader may fetch each block from any replica; the achievable
    parallelism is bounded by the number of distinct holders across all
    blocks (the paper's Section 9.3 concern for very large files).
    """
    nodes: Set[str] = set()
    for key in keys:
        nodes.update(placement_holders(ring, key, replicas, placement))
    return len(nodes)


def key_available_hybrid(
    ring: Ring, key: int, replicas: int, alive: Set[str], *, mode: str = "rank"
) -> bool:
    """Availability test under hybrid placement."""
    return any(
        h in alive for h in hybrid_replica_nodes(ring, key, replicas, mode=mode)
    )
