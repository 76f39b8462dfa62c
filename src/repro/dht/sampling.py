"""Uniform node sampling by random walk (Mercury's technique).

The Karger–Ruhl balancing rule needs each node to contact a *uniform
random* other node once per probe interval.  A real DHT node has no global
membership list; Mercury (Section 6: "implements a version of this
algorithm using an efficient random sampling technique") samples with
random walks over its routing links.

The naive walk — "jump to the successor of a uniformly random point" —
is *not* uniform over nodes: a node is hit with probability proportional
to the arc it owns, and under D2 the balancer makes arcs wildly uneven on
purpose.  We therefore run a Metropolis–Hastings walk toward the uniform
distribution with a *mixed* proposal kernel:

* with probability 1/2, an **independence proposal** — jump to the
  successor of a uniformly random ring point (probability ∝ arc width);
* with probability 1/2, a **neighbor proposal** — step to the immediate
  successor or predecessor (symmetric).

The independence part teleports across the ring; the neighbor part keeps
the chain mobile inside clusters of tiny arcs, where independence
proposals alone almost always point at some huge empty arc and get
rejected (exactly the shape D2's balancer produces).  The MH acceptance
ratio uses the full mixture density, so uniformity is exact in the limit;
tests check near-uniformity on rings with 10^6-fold arc-size skew.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.dht.keyspace import KEY_SPACE, interval_width
from repro.dht.ring import Ring


def _arc_width(ring: Ring, name: str) -> int:
    lo, hi = ring.range_of(name)
    if len(ring) == 1:
        return KEY_SPACE
    return interval_width(lo, hi)


def _proposal_density(ring: Ring, a: str, b: str, arc_b: int) -> float:
    """q(b | a) under the mixed kernel, up to the constant KEY_SPACE."""
    density = 0.5 * arc_b / KEY_SPACE
    if b == ring.successor_of(a) or b == ring.predecessor_of(a):
        # Neighbor proposals pick one of two directions uniformly.  (On a
        # two-node ring both directions coincide; the factor cancels in
        # the symmetric acceptance ratio anyway.)
        density += 0.5 * 0.5
    return density


def random_walk_sample(
    ring: Ring,
    start: str,
    rng: random.Random,
    *,
    steps: Optional[int] = None,
) -> str:
    """An approximately uniform node sample reachable from *start*.

    *steps* defaults to ``4 * ceil(log2 n) + 8`` proposal rounds — ample
    for the mixed independence/neighbor MH chain (independence proposals
    give O(1) mixing across well-sized arcs; neighbor proposals carry the
    chain through clusters of tiny arcs).
    """
    n = len(ring)
    if n == 0:
        raise ValueError("cannot sample an empty ring")
    if n == 1:
        return next(iter(ring.names()))
    if steps is None:
        steps = 4 * math.ceil(math.log2(n)) + 8
    current = start
    current_arc = _arc_width(ring, current)
    for _ in range(steps):
        if rng.random() < 0.5:
            candidate = ring.successor(rng.randrange(KEY_SPACE))
        else:
            candidate = (
                ring.successor_of(current)
                if rng.random() < 0.5
                else ring.predecessor_of(current)
            )
        if candidate == current:
            continue
        candidate_arc = _arc_width(ring, candidate)
        # Metropolis-Hastings for the uniform target: accept with
        # q(current | candidate) / q(candidate | current).
        forward = _proposal_density(ring, current, candidate, candidate_arc)
        backward = _proposal_density(ring, candidate, current, current_arc)
        if forward <= 0:
            continue
        if backward >= forward or rng.random() < backward / forward:
            current = candidate
            current_arc = candidate_arc
    return current


def sample_other(ring: Ring, prober: str, rng: random.Random) -> str:
    """A uniform-ish sample different from *prober* (what probing needs)."""
    for _ in range(64):
        candidate = random_walk_sample(ring, prober, rng)
        if candidate != prober:
            return candidate
    # Pathological two-node ring with extreme skew: fall back to the peer.
    for name in ring.names():
        if name != prober:
            return name
    raise ValueError("ring has only the prober")
