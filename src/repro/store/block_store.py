"""Authoritative block directory (what D2-Store collectively stores).

The directory is the simulation's ground truth for *logical* content: the
set of live block keys and their sizes.  Responsibility for a key is always
derived from the ring (``r`` successors), and the *physical* location of
each primary copy is tracked separately by
:class:`repro.store.migration.StorageCoordinator` so that block pointers
(deferred migration) can be modelled exactly.

The directory supports the range queries the load balancer needs — count,
median, and byte volume over an arc ``(lo, hi]`` — via a sorted index that
stays sorted: a write records which key came or went (O(1)), and the next
query patches those keys into the existing list by bisect.  Only a burst
that changes a large share of the index (an image load) is answered by one
full re-sort, and such a burst stops being recorded as soon as that is
certain.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dht.keyspace import validate_key


class BlockDirectoryError(Exception):
    """Raised on invalid directory operations (duplicate put, missing key)."""


#: Pending key changes beyond this share of the index go to one re-sort
#: instead of a patch.  A patched key pays a bisect and a list shift (2.3 us
#: at 22 k keys); a re-sort of the key dict pays for every key, little when
#: insertion order is run-rich as D2's is (break-even at 5 % of the keys
#: pending) and more when it is hashed (16 %).  Between two balancing probes
#: 0.03-5 % of the index changes (median 0.24 %); an image load, all of it.
RESORT_SHARE = 1 / 16


class BlockDirectory:
    """Sorted index of live block keys and sizes with circular range queries."""

    def __init__(self) -> None:
        self._sizes: Dict[int, int] = {}
        self._sorted: List[int] = []
        # Keys that joined (True) or left (False) ``_sizes`` since ``_sorted``
        # was current, in the order they changed; None once a re-sort is
        # certain and nothing more needs recording.
        self._pending: Optional[Dict[int, bool]] = {}
        self.total_bytes = 0

    # ------------------------------------------------------------------
    # mutation

    def add(self, key: int, size: int) -> None:
        """Record a new live block.  Re-adding an existing key is an error."""
        validate_key(key)
        if size < 0:
            raise BlockDirectoryError(f"negative block size {size}")
        if key in self._sizes:
            raise BlockDirectoryError(f"block {key:#x} already present")
        self._sizes[key] = size
        self.total_bytes += size
        self._note(key, True)

    def put(self, key: int, size: int) -> int:
        """Upsert a block; returns the size delta (new - old)."""
        before = self.total_bytes
        self.put_many(((key, size),))
        return self.total_bytes - before

    def put_many(self, items: Sequence[Tuple[int, int]]) -> None:
        """Upsert every ``(key, size)`` of a flush, in order.

        All of them are checked first: an invalid key or a negative size
        anywhere raises before the directory has changed.
        """
        for key, size in items:
            validate_key(key)
            if size < 0:
                raise BlockDirectoryError(f"negative block size {size}")
        sizes = self._sizes
        for key, size in items:
            old = sizes.get(key)
            sizes[key] = size
            if old is None:
                self._note(key, True)
                self.total_bytes += size
            else:
                self.total_bytes += size - old

    def remove(self, key: int) -> int:
        """Delete a block; returns its size."""
        try:
            size = self._sizes.pop(key)
        except KeyError:
            raise BlockDirectoryError(f"block {key:#x} not present") from None
        self.total_bytes -= size
        self._note(key, False)
        return size

    def discard(self, key: int) -> Optional[int]:
        """Delete a block if present; returns its size or None."""
        size = self._sizes.pop(key, None)
        if size is not None:
            self.total_bytes -= size
            self._note(key, False)
        return size

    def _note(self, key: int, added: bool) -> None:
        """Record that *key* joined or left the key set since the last query.

        A key can only be pending the other way round (a pending add is
        live, so it can only leave), so meeting it again cancels the pair.
        """
        pending = self._pending
        if pending is not None and pending.pop(key, None) is None:
            pending[key] = added
            if len(pending) > len(self._sorted) * RESORT_SHARE:
                self._pending = None

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, key: int) -> bool:
        return key in self._sizes

    def size_of(self, key: int) -> int:
        try:
            return self._sizes[key]
        except KeyError:
            raise BlockDirectoryError(f"block {key:#x} not present") from None

    def keys(self) -> Iterator[int]:
        return iter(self._sizes)

    def _index(self) -> List[int]:
        """The live keys in ascending order, brought up to date in place."""
        pending = self._pending
        if pending is None:
            self._sorted = sorted(self._sizes)
            self._pending = {}
        elif pending:
            index = self._sorted
            for key, added in pending.items():
                at = bisect.bisect_left(index, key)
                if added:
                    index.insert(at, key)
                elif at < len(index) and index[at] == key:
                    del index[at]
                else:
                    raise BlockDirectoryError(
                        f"block {key:#x} left the directory but not its index"
                    )
            pending.clear()
        return self._sorted

    def keys_in_range(self, lo: int, hi: int) -> List[int]:
        """Live keys in the circular arc ``(lo, hi]``, in clockwise order.

        ``lo == hi`` denotes the full ring (single-node system).
        """
        index = self._index()
        if not index:
            return []
        if lo == hi:
            # Full ring, clockwise starting just after lo.
            start = bisect.bisect_right(index, lo)
            return index[start:] + index[:start]
        if lo < hi:
            start = bisect.bisect_right(index, lo)
            stop = bisect.bisect_right(index, hi)
            return index[start:stop]
        # Wrapping arc: (lo, MAX] ++ [0, hi]
        start = bisect.bisect_right(index, lo)
        stop = bisect.bisect_right(index, hi)
        return index[start:] + index[:stop]

    def count_in_range(self, lo: int, hi: int) -> int:
        """Number of live keys in the arc ``(lo, hi]`` — the primary load."""
        index = self._index()
        if not index:
            return 0
        if lo == hi:
            return len(index)
        start = bisect.bisect_right(index, lo)
        stop = bisect.bisect_right(index, hi)
        if lo < hi:
            return stop - start
        return (len(index) - start) + stop

    def bytes_in_range(self, lo: int, hi: int) -> int:
        """Total byte volume of live blocks in the arc ``(lo, hi]``."""
        return sum(self._sizes[k] for k in self.keys_in_range(lo, hi))
