"""Wide-area network model: pairwise latencies.

The paper's Emulab testbed emulated pairwise end-to-end latencies measured
between thousands of DNS servers (the King dataset; mean RTT ≈ 90 ms in
their topology) and per-node access links of 1500 or 384 kbps.  We have no
King matrix offline, so nodes are placed in a synthetic 2-D latency space:
RTTs are a base propagation floor plus Euclidean distance, scaled so the
mean pairwise RTT matches a target.  This preserves what the experiments
consume — a broad RTT distribution with several-hundred-millisecond spread
and geometric consistency (closeness is mutual and roughly transitive) —
without the proprietary trace.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, Sequence, Tuple

DEFAULT_MEAN_RTT = 0.090  # seconds; matches the paper's topology
MIN_RTT = 0.005


class LatencyModel:
    """Pairwise RTTs from synthetic 2-D coordinates.

    Construct via :meth:`random`.  RTT(a, b) = base + |coord_a - coord_b|,
    scaled so the expected RTT between two random nodes equals
    :data:`DEFAULT_MEAN_RTT`.
    """

    def __init__(self, coords: Dict[str, Tuple[float, float]], base_rtt: float, scale: float) -> None:
        self._coords = coords
        self._base = base_rtt
        self._scale = scale

    @classmethod
    def random(cls, names: Iterable[str], rng: random.Random) -> "LatencyModel":
        """Place *names* uniformly in the unit square, scale to the mean RTT.

        The expected distance between two uniform points in the unit square
        is ~0.5214; the scale makes base + scale * E[dist] == DEFAULT_MEAN_RTT.
        """
        names = list(names)
        if not names:
            raise ValueError("need at least one node")
        expected_unit_distance = 0.5214
        scale = (DEFAULT_MEAN_RTT - MIN_RTT) / expected_unit_distance
        coords = {name: (rng.random(), rng.random()) for name in names}
        return cls(coords, MIN_RTT, scale)

    def rtt(self, a: str, b: str) -> float:
        """Round-trip time between nodes *a* and *b*, in seconds."""
        if a == b:
            return 0.0
        ax, ay = self._coords[a]
        bx, by = self._coords[b]
        return self._base + self._scale * math.hypot(ax - bx, ay - by)

    def one_way(self, a: str, b: str) -> float:
        return self.rtt(a, b) / 2.0

    def path_latency(self, path: Sequence[str]) -> float:
        """One-way latency along a multi-hop path (recursive lookup legs)."""
        return sum(self.one_way(path[i], path[i + 1]) for i in range(len(path) - 1))
