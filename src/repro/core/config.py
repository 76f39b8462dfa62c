"""Central configuration for a D2 deployment.

Defaults follow the paper's experimental setup (Sections 5, 6, 8.1, 9.1):

==============================  =======================================
replicas (r)                    3 (availability sims) / 4 (latency sims)
balance threshold (t)           4
probe interval                  10 minutes
pointer stabilization time      1 hour
lookup-cache TTL                1.25 hours
block removal grace             30 seconds
migration bandwidth cap         750 kbps per node
access-link bandwidth           1500 kbps (or 384 kbps, constrained case)
concurrent client transfers     15
==============================  =======================================

The paper's 8 KB block is :data:`repro.fs.blocks.BLOCK_SIZE`.  Its 30 s
client cache is only modelled on the read side, as the buffer cache of
:class:`repro.analysis.performance.PerformanceHarness` (``buffer_ttl``);
writes reach the store at once, with no write-back delay.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from repro.sim.engine import kbps


@dataclass(frozen=True)
class D2Config:
    """All tunables of a simulated deployment, paper defaults baked in."""

    replica_count: int = 3
    balance_threshold: float = 4.0
    probe_interval: float = 600.0
    pointer_stabilization_time: float = 3600.0
    use_pointers: bool = True
    lookup_cache_ttl: float = 4500.0
    removal_delay: float = 30.0
    migration_bandwidth_bps: float = kbps(750)
    access_bandwidth_bps: float = kbps(1500)
    max_concurrent_transfers: int = 15
    active_load_balancing: bool = True

    def with_overrides(self, **kwargs) -> "D2Config":
        """A copy with selected fields replaced (configs are immutable)."""
        return replace(self, **kwargs)

    def validate(self) -> "D2Config":
        if self.replica_count < 1:
            raise ValueError("replica_count must be at least 1")
        if self.balance_threshold < 2:
            raise ValueError("balance_threshold below 2 cannot converge")
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        if self.max_concurrent_transfers < 1:
            raise ValueError("max_concurrent_transfers must be at least 1")
        return self


# Named configurations used by the evaluation harnesses.
AVAILABILITY_CONFIG = D2Config(replica_count=3)
PERFORMANCE_CONFIG = D2Config(replica_count=4)
CONSTRAINED_CONFIG = PERFORMANCE_CONFIG.with_overrides(
    access_bandwidth_bps=kbps(384)
)
