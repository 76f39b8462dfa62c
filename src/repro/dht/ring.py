"""Ring membership: sorted node IDs, successor lookup, replica groups.

The ring is the one data structure shared by every DHT variant in this
reproduction.  Nodes are identified by a stable *name* (they keep it for
life) and occupy a ring *position* (their current ID), which the dynamic
load balancer may change.  Under consistent hashing positions never change;
under D2's Karger–Ruhl balancing a node leaves and rejoins at a new
position.

Ownership rule: the node at position ``p`` whose predecessor sits at ``q``
owns the half-open circular arc ``(q, p]``.  A key's *replica group* is its
owner plus the next ``r - 1`` distinct successors (the paper's ``r``
immediate successors; the first is the primary replica).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.dht.keyspace import KEY_SPACE, in_interval, validate_key


class RingError(Exception):
    """Raised on invalid membership operations (duplicate joins, etc.)."""


#: Cap on the hot-path lookup memos below.  Replay loops resolve the same
#: block keys millions of times between membership changes, but a long
#: churn-free replay over a huge key population must not grow the memo
#: without bound; on overflow the memo is simply dropped and rebuilt.
_MEMO_MAX = 1 << 17


class Ring:
    """Sorted ring of named nodes supporting O(log n) successor lookup."""

    def __init__(self) -> None:
        self._ids: List[int] = []            # sorted ring positions
        self._names: List[str] = []          # names parallel to _ids
        self._position: Dict[str, int] = {}  # name -> current ring position
        self._version = 0                    # bumped on every membership change
        # key -> owner index and (owner index, count) -> replica group,
        # valid only while _memo_version == _version (see successor_index).
        self._memo_version = -1
        self._owner_memo: Dict[int, int] = {}
        self._group_memo: Dict[Tuple[int, int], List[str]] = {}

    @property
    def version(self) -> int:
        """Monotonic membership/position generation.

        Incremented by every join, leave, or position change, so callers
        can cache derived views (e.g. the balancer's sampling list) and
        invalidate them only when the ring actually changed.
        """
        return self._version

    # ------------------------------------------------------------------
    # membership

    def join(self, name: str, node_id: int) -> None:
        """Add node *name* at ring position *node_id*.

        Positions must be unique; callers that derive positions from data
        (e.g. load-balancing split points) should use
        :meth:`free_position_at` first.
        """
        validate_key(node_id)
        if name in self._position:
            raise RingError(f"node {name!r} already joined")
        index = bisect.bisect_left(self._ids, node_id)
        if index < len(self._ids) and self._ids[index] == node_id:
            raise RingError(f"ring position {node_id:#x} already occupied")
        self._ids.insert(index, node_id)
        self._names.insert(index, name)
        self._position[name] = node_id
        self._version += 1

    def leave(self, name: str) -> int:
        """Remove node *name*; returns the position it vacated."""
        node_id = self._require(name)
        index = bisect.bisect_left(self._ids, node_id)
        del self._ids[index]
        del self._names[index]
        del self._position[name]
        self._version += 1
        return node_id

    def change_position(self, name: str, new_id: int) -> Tuple[int, int]:
        """Atomically move *name* to *new_id* (leave + rejoin).

        Returns ``(old_id, new_id)``.  This is how the load balancer
        implements an ID change.
        """
        old_id = self.leave(name)
        try:
            self.join(name, new_id)
        except RingError:
            self.join(name, old_id)  # restore on failure so the ring stays valid
            raise
        return old_id, new_id

    def free_position_at(self, desired: int) -> int:
        """Nearest unoccupied position at or clockwise-before *desired*.

        Split points computed from block keys can coincide with an existing
        node position; stepping counter-clockwise keeps the intended load
        split (the blocks at exactly *desired* stay with the new node).
        """
        validate_key(desired)
        candidate = desired
        while self.occupied(candidate):
            candidate = (candidate - 1) % KEY_SPACE
        return candidate

    def occupied(self, node_id: int) -> bool:
        index = bisect.bisect_left(self._ids, node_id)
        return index < len(self._ids) and self._ids[index] == node_id

    # ------------------------------------------------------------------
    # lookup

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, name: str) -> bool:
        return name in self._position

    def names(self) -> Iterator[str]:
        """Node names in ring order (ascending position)."""
        return iter(list(self._names))

    def positions(self) -> Sequence[int]:
        """Snapshot of sorted ring positions."""
        return tuple(self._ids)

    def position_of(self, name: str) -> int:
        return self._require(name)

    def name_at(self, node_id: int) -> str:
        index = bisect.bisect_left(self._ids, node_id)
        if index >= len(self._ids) or self._ids[index] != node_id:
            raise RingError(f"no node at position {node_id:#x}")
        return self._names[index]

    def successor_index(self, key: int) -> int:
        """Index (into ring order) of the owner of *key*.

        Memoized per membership generation: between ring changes the replay
        loops resolve the same keys over and over, so a repeat lookup is one
        dict probe instead of a bisect over the position list.
        """
        if not self._ids:
            raise RingError("ring is empty")
        if self._memo_version != self._version:
            self._owner_memo.clear()
            self._group_memo.clear()
            self._memo_version = self._version
        index = self._owner_memo.get(key)
        if index is None:
            validate_key(key)
            index = bisect.bisect_left(self._ids, key) % len(self._ids)
            if len(self._owner_memo) >= _MEMO_MAX:
                self._owner_memo.clear()
            self._owner_memo[key] = index
        return index

    def successor(self, key: int) -> str:
        """Name of the node that owns *key* (its immediate successor)."""
        return self._names[self.successor_index(key)]

    def owners(self, keys: Iterable[int]) -> List[str]:
        """The owner of each of *keys*, in order.

        For keys asked about once (a flush's fresh block versions): one
        pass over the sorted positions that neither reads nor grows the
        memo, which would otherwise end an image load holding every key.
        """
        if not self._ids:
            raise RingError("ring is empty")
        ids, names, size = self._ids, self._names, len(self._ids)
        find = bisect.bisect_left
        return [names[find(ids, validate_key(key)) % size] for key in keys]

    def successors(self, key: int, count: int) -> List[str]:
        """The *count* distinct nodes clockwise from *key* (replica group).

        Returns fewer than *count* names when the ring is smaller than
        *count*.  Replica groups are memoized by (owner index, count) — all
        keys in one primary arc share one cached group — and invalidated
        with the owner memo whenever membership changes.
        """
        start = self.successor_index(key)  # validates key, refreshes memos
        entry = self._group_memo.get((start, count))
        if entry is None:
            size = len(self._ids)
            entry = [self._names[(start + i) % size] for i in range(min(count, size))]
            if len(self._group_memo) >= _MEMO_MAX:
                self._group_memo.clear()
            self._group_memo[(start, count)] = entry
        return entry[:]  # callers may mutate their copy; the memo stays intact

    def predecessor_of(self, name: str) -> str:
        """Name of the node immediately counter-clockwise of *name*."""
        node_id = self._require(name)
        index = bisect.bisect_left(self._ids, node_id)
        return self._names[(index - 1) % len(self._ids)]

    def successor_of(self, name: str) -> str:
        """Name of the node immediately clockwise of *name*."""
        node_id = self._require(name)
        index = bisect.bisect_left(self._ids, node_id)
        return self._names[(index + 1) % len(self._ids)]

    def range_of(self, name: str) -> Tuple[int, int]:
        """The arc ``(pred_id, own_id]`` that *name* owns as primary."""
        node_id = self._require(name)
        pred_id = self.position_of(self.predecessor_of(name))
        return pred_id, node_id

    def owns(self, name: str, key: int) -> bool:
        """True when *name* is the primary owner of *key*."""
        lo, hi = self.range_of(name)
        if len(self._ids) == 1:
            return True
        return in_interval(key, lo, hi)

    def replica_range_of(self, name: str, replicas: int) -> Tuple[int, int]:
        """The arc of keys for which *name* holds any of the *replicas* copies.

        A node replicates the primary ranges of itself and its ``replicas-1``
        immediate predecessors, i.e. the arc ``(pred^replicas(name), name]``.
        """
        node_id = self._require(name)
        size = len(self._ids)
        if replicas >= size:
            return node_id, node_id  # whole ring
        index = bisect.bisect_left(self._ids, node_id)
        return self._ids[(index - replicas) % size], node_id

    def _require(self, name: str) -> int:
        try:
            return self._position[name]
        except KeyError:
            raise RingError(f"unknown node {name!r}") from None


def load_split_point(keys: Sequence[int], hi: int) -> Optional[int]:
    """Median split point of *keys*, the primary keys of the arc ending at *hi*.

    *keys* are exactly the keys of the arc, in clockwise order from its
    start (what ``primary_keys`` returns).  Returns the key below-or-at
    which half of them fall, i.e. the ring position a joining predecessor
    should take to inherit the first half of the load.  Returns ``None``
    when the arc holds fewer than two keys (nothing to split).
    """
    if len(keys) < 2:
        return None
    median = keys[(len(keys) - 1) // 2]
    if median == hi:
        return None  # splitting at the owner's own position is a no-op
    return median
