"""Erasure-coded redundancy as an alternative to whole-block replication.

Section 3: "Erasure coding (with r fragments) could be used instead of
whole block replication to save storage space at the cost of read/write
performance and complexity.  However, whether we use replication or
erasure coding, defragmenting k objects so that they reside on r nodes
instead of k*r nodes achieves a similar availability improvement."

This module provides the (m, k) erasure model — a block is split into
``k`` data fragments encoded into ``m`` total fragments placed on the
``m`` successors of its key; any ``k`` fragments reconstruct the block —
and its availability arithmetic, so the extension experiment can verify
the paper's claim that D2's advantage is redundancy-scheme agnostic.

No actual coding math is needed at simulation granularity: what matters is
*which nodes hold fragments* and *how many must be reachable*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ErasureConfig:
    """(m, k) code: *total* fragments stored, *needed* to reconstruct.

    Replication with r copies is the degenerate code (m=r, k=1).
    """

    total: int
    needed: int

    def __post_init__(self) -> None:
        if self.needed < 1:
            raise ValueError("needed must be at least 1")
        if self.total < self.needed:
            raise ValueError("total fragments must be >= needed")

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per byte of data (replication r=3 -> 3.0)."""
        return self.total / self.needed

    @classmethod
    def replication(cls, copies: int) -> "ErasureConfig":
        return cls(total=copies, needed=1)


def group_availability_probability(
    config: ErasureConfig, node_availability: float
) -> float:
    """Analytic P(block readable) with i.i.d. node availability *p*.

    P = sum_{i=k}^{m} C(m, i) p^i (1-p)^{m-i} — the standard (m, k) code
    availability, used by tests to validate the simulation and by
    capacity-planning helpers.
    """
    if not 0.0 <= node_availability <= 1.0:
        raise ValueError("node availability must be a probability")
    p = node_availability
    m, k = config.total, config.needed
    return sum(
        math.comb(m, i) * p**i * (1.0 - p) ** (m - i) for i in range(k, m + 1)
    )
