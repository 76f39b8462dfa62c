"""Block-pointer bookkeeping for deferred migration (Section 6).

When a load-balancing ID change hands a key range to a new node, D2 does
not move the data immediately.  The adopting node records a *pointer
range*: it is now responsible for the range, but the bytes still sit on the
previous holder.  Only after the range has been held for the *pointer
stabilization time* does the node fetch the actual blocks.  If the range
changes hands again before stabilizing, only the (tiny) pointers move — the
blocks themselves transfer at most once, from the original holder to the
final destination.

The physical location of every primary copy is tracked exactly by the
coordinator (:mod:`repro.store.migration`); this module provides the
pending-stabilization records and range algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.dht.keyspace import in_interval


@dataclass(frozen=True)
class PointerRange:
    """A half-open circular arc ``(lo, hi]`` adopted at ``adopted_at``.

    ``owner`` is the node responsible for the arc when it was adopted; the
    stabilization event checks responsibility again before fetching, so a
    stale record is harmless.
    """

    lo: int
    hi: int
    owner: str
    adopted_at: float

    def covers(self, key: int) -> bool:
        return in_interval(key, self.lo, self.hi)


@dataclass
class PointerTable:
    """Pending pointer ranges awaiting stabilization, per storage system."""

    _ranges: List[PointerRange] = field(default_factory=list)
    dropped_count: int = 0

    def adopt(self, lo: int, hi: int, owner: str, now: float) -> PointerRange:
        """Record that *owner* became responsible for ``(lo, hi]`` at *now*."""
        record = PointerRange(lo, hi, owner, now)
        self._ranges.append(record)
        return record

    def retire(self, record: PointerRange) -> bool:
        """Drop a range whose stabilization event has fired.

        Returns False when the range was already retired (e.g. superseded
        by a later adoption or a force-flush), True otherwise.

        Retirement matches by *identity*, not equality: two adoptions of
        the same ``(lo, hi, owner)`` arc at the same instant produce equal
        but distinct records, each with its own stabilization event, and
        each event must retire exactly its own record.
        """
        for index, existing in enumerate(self._ranges):
            if existing is record:
                del self._ranges[index]
                return True
        return False  # already retired

    def drop(self, record: PointerRange) -> bool:
        """Remove a record without counting it as stabilized.

        Used when a pending range's owner crashes: the adoption is void
        (the arc re-adopts under the node now responsible), so it must not
        count as stabilized.  Identity-matched like :meth:`retire`;
        the record's already-scheduled stabilization event then no-ops.
        """
        for index, existing in enumerate(self._ranges):
            if existing is record:
                del self._ranges[index]
                self.dropped_count += 1
                return True
        return False

    def pending(self) -> Tuple[PointerRange, ...]:
        return tuple(self._ranges)

    def pending_for(self, owner: str) -> Iterator[PointerRange]:
        return (r for r in self._ranges if r.owner == owner)

    def covering(self, key: int) -> Iterator[PointerRange]:
        return (r for r in self._ranges if r.covers(key))

    def __len__(self) -> int:
        return len(self._ranges)
