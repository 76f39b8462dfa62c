"""Central configuration for a D2 deployment.

A run varies two settings, the fields of :class:`D2Config`.  Every other
value of the paper's experimental setup (Sections 5, 6, 8.1, 9.1) is one
constant where it is used:

===========================  ========================  ========================================
setting                      paper value               where it lives (module under ``repro``)
===========================  ========================  ========================================
replicas (r)                 3 (avail.) / 4 (latency)  ``D2Config.replica_count``
access-link bandwidth        1500 kbps (or 384 kbps)   ``D2Config.access_bandwidth_bps``
balance threshold (t)        4                         ``KargerRuhlBalancer`` default
probe interval               10 minutes                ``system.PROBE_INTERVAL``
pointer stabilization time   1 hour                    ``StorageCoordinator`` default
block removal grace          30 seconds                ``StorageCoordinator`` default
lookup-cache TTL             1.25 hours                ``lookup_cache.DEFAULT_TTL``
migration bandwidth cap      750 kbps per node         ``repair.MIGRATION_BANDWIDTH_BPS``
concurrent client transfers  15                        ``performance.MAX_CONCURRENT_TRANSFERS``
===========================  ========================  ========================================

The paper's 8 KB block is :data:`repro.fs.blocks.BLOCK_SIZE`.  Its 30 s
client cache is only modelled on the read side, as the buffer cache of
:class:`repro.analysis.performance.PerformanceHarness` (``buffer_ttl``);
writes reach the store at once, with no write-back delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.sim.engine import kbps


@dataclass(frozen=True)
class D2Config:
    """The two settings a run varies, paper defaults baked in."""

    replica_count: int = 3
    access_bandwidth_bps: float = kbps(1500)

    def validate(self) -> "D2Config":
        if self.replica_count < 1:
            raise ValueError("replica_count must be at least 1")
        if self.access_bandwidth_bps <= 0:
            raise ValueError("access bandwidth must be positive")
        return self
