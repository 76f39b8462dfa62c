"""Per-ring-version Chord finger tables and the greedy walk, in index space.

The finger rule is ``successor(p + 2**i)`` for every level ``i``, and a
lookup greedily takes the farthest finger lying in ``(current, key]``.  In
ring order that arc is a run of consecutive nodes: those strictly between
the current node and the key's owner, plus the owner itself iff the key
sits exactly on the owner's id.  So the hop path is a function of
``(source index, owner index, key == owner id)`` alone, and one node's
fingers reduce to the sorted tuple of their distinct *cyclic index offsets*
from that node.  :meth:`FingerTable.walk` takes each hop with one bisect
over such a tuple in small-int arithmetic; the 512-bit ids are only touched
when a node's offsets are first derived.

Two structural facts keep the tables small and cheap to build:

* For every level where ``2**i <= distance(p, successor(p))`` the finger
  is the node's immediate successor (offset 1) — with n uniformly-placed
  nodes that covers the bottom ``KEY_BITS - O(log n)`` levels, so only the
  top ``O(log n)`` levels need a bisect each.
* Offsets are built *lazily per node*: a routing stream only pays for the
  nodes its hops actually visit.

Invalidation follows the same contract as the ring's successor memos
(:attr:`repro.dht.ring.Ring.version`): any join, leave, or position change
bumps the version and the next access rebuilds from a fresh snapshot.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from repro.dht.keyspace import KEY_BITS, KEY_SPACE
from repro.dht.ring import Ring, RingError


class FingerTable:
    """Lazily-materialized finger offsets for every node of one ring.

    The table snapshots the ring's sorted ``(ids, names)`` arrays per
    membership generation; per-node offset tuples are built on first visit
    and reused until the ring version changes.
    """

    def __init__(self, ring: Ring) -> None:
        self._ring = ring
        self._version = -1
        self._ids: Tuple[int, ...] = ()
        self._names: Tuple[str, ...] = ()
        self._offsets: List[Optional[Tuple[int, ...]]] = []

    def refresh(self) -> None:
        """Re-snapshot the ring if its membership generation moved."""
        ring = self._ring
        if self._version == ring.version:
            return
        self._ids = tuple(ring.positions())
        self._names = tuple(ring.names())
        self._offsets = [None] * len(self._ids)
        self._version = ring.version

    def __len__(self) -> int:
        self.refresh()
        return len(self._ids)

    @property
    def ids(self) -> Tuple[int, ...]:
        self.refresh()
        return self._ids

    @property
    def names(self) -> Tuple[str, ...]:
        self.refresh()
        return self._names

    def index_of_id(self, node_id: int) -> int:
        """Ring-order index of the node at *node_id* (must exist)."""
        self.refresh()
        index = bisect_left(self._ids, node_id)
        if index >= len(self._ids) or self._ids[index] != node_id:
            raise RingError(f"no node at position {node_id:#x}")
        return index

    def _build(self, index: int) -> Tuple[int, ...]:
        """Distinct cyclic index offsets of node *index*'s fingers, sorted.

        Always contains 1 (level 0 is the immediate successor); a finger
        that wraps all the way back to the node itself is never usable and
        is left out.  Only called on rings of two or more nodes.
        """
        ids = self._ids
        size = len(ids)
        p = ids[index]
        # Levels with 2**i <= d_succ land inside (p, successor]: offset 1.
        low_levels = ((ids[(index + 1) % size] - p) % KEY_SPACE).bit_length()
        offsets = {1}
        for level in range(low_levels, KEY_BITS):
            target = (p + (1 << level)) % KEY_SPACE
            offsets.add((bisect_left(ids, target) - index) % size)
        offsets.discard(0)
        return tuple(sorted(offsets))

    def walk(self, index: int, owner_index: int, exact: bool,
             max_hops: int) -> List[str]:
        """Greedy hop path, as node names, from *index* to *owner_index*.

        *exact* says the key equals the owner's id, which makes the owner
        itself a usable finger target; otherwise the farthest usable node
        is the owner's predecessor and the last hop is a successor step.
        Every hop shortens the remaining index distance, so the walk always
        ends; a path longer than *max_hops* raises ``RuntimeError``.
        """
        self.refresh()
        names = self._names
        size = len(names)
        per_node = self._offsets
        slack = 0 if exact else 1
        path = [names[index]]
        remaining = (owner_index - index) % size
        while remaining:
            offsets = per_node[index]
            if offsets is None:
                offsets = per_node[index] = self._build(index)
            # Farthest finger within (current, key]; 1 is always present,
            # so a limit of 0 (owner is the successor) steps to it.
            step = offsets[bisect_right(offsets, remaining - slack or 1) - 1]
            remaining -= step
            index += step
            if index >= size:
                index -= size
            path.append(names[index])
        if len(path) - 1 > max_hops:
            raise RuntimeError("routing failed to converge; ring state is inconsistent")
        return path
