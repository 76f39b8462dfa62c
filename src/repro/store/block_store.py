"""Authoritative block directory (what D2-Store collectively stores).

The directory is the simulation's ground truth for *logical* content: the
set of live block keys and their sizes.  Responsibility for a key is always
derived from the ring (``r`` successors), and the *physical* location of
each primary copy is tracked separately by
:class:`repro.store.migration.StorageCoordinator` so that block pointers
(deferred migration) can be modelled exactly.

The directory supports the range queries the load balancer needs — count,
median, and byte volume over an arc ``(lo, hi]`` — via a sorted index kept
as a list of sorted buckets of at most ``BUCKET_KEYS`` keys.  A write that
adds or drops a key bisects into the one bucket that holds it (splitting a
full bucket, dropping an emptied one), and a query bisects the bucket
maxima, then one bucket, reading keys before it from per-bucket counts that
are summed again only after a change.  A burst that changes more than
``RESORT_SHARE`` of the keys between two queries (an image load) stops
touching buckets at once and is absorbed by one sort at the next query.
"""

from __future__ import annotations

import bisect
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dht.keyspace import validate_key


class BlockDirectoryError(Exception):
    """Raised on invalid directory operations (negative size, missing key)."""


#: Key changes beyond this share of the index between two queries go to one
#: re-sort instead of bucket updates.  A bucket update pays a bisect of the
#: bucket maxima and an insert or delete within one bucket; a re-sort of the
#: key dict pays for every key, little when insertion order is run-rich as
#: D2's is and more when it is hashed.  Between two balancing probes 0.03-5 %
#: of the index changes (median 0.24 %); an image load, all of it.
RESORT_SHARE = 1 / 16

#: Largest bucket; a bucket that grows past it splits in two.
BUCKET_KEYS = 1024


class BlockDirectory:
    """Sorted index of live block keys and sizes with circular range queries."""

    def __init__(self) -> None:
        self._sizes: Dict[int, int] = {}
        # The live keys in ascending order, cut into non-empty buckets, and
        # each bucket's last key.
        self._buckets: List[List[int]] = []
        self._maxes: List[int] = []
        # Keys in the buckets before each bucket, plus the total, and the
        # counts answered from them; None after a change, until the next
        # query sums them again.
        self._starts: Optional[List[int]] = [0]
        self._counted: Dict[Tuple[int, int], int] = {}
        # Key-set changes the buckets take before the next query; below
        # zero, the changes are a burst and the buckets wait for a re-sort.
        self._room = 0
        self.total_bytes = 0

    # ------------------------------------------------------------------
    # mutation

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
                self.total_bytes += size
                if self._room >= 0:
                    self._insert(key)
            else:
                self.total_bytes += size - old

    def discard(self, key: int) -> Optional[int]:
        """Delete a block if present; returns its size or None."""
        size = self._sizes.pop(key, None)
        if size is not None:
            self.total_bytes -= size
            if self._room >= 0:
                self._remove(key)
        return size

    def _insert(self, key: int) -> None:
        """Put a new key into the one bucket that holds its place, or, once
        the changes are a burst, leave it to the next query's sort."""
        self._starts = None
        self._room -= 1
        if self._room < 0:
            return
        maxes = self._maxes
        at = bisect.bisect_left(maxes, key)
        if at == len(maxes):  # past every key: the last bucket grows
            at -= 1
            bucket = self._buckets[at]
            bucket.append(key)
            maxes[at] = key
        else:
            bucket = self._buckets[at]
            bisect.insort(bucket, key)
        if len(bucket) > BUCKET_KEYS:
            half = len(bucket) // 2
            self._buckets[at:at + 1] = bucket[:half], bucket[half:]
            maxes[at:at + 1] = bucket[half - 1], bucket[-1]

    def _remove(self, key: int) -> None:
        """Take a key that left out of the one bucket that holds it (once a
        burst, as ``_insert``)."""
        self._starts = None
        self._room -= 1
        if self._room < 0:
            return
        maxes = self._maxes
        at = bisect.bisect_left(maxes, key)
        bucket = self._buckets[at] if at < len(maxes) else []
        where = bisect.bisect_left(bucket, key)
        if where == len(bucket) or bucket[where] != key:
            raise BlockDirectoryError(
                f"block {key:#x} left the directory but not its index"
            )
        del bucket[where]
        if not bucket:
            del self._buckets[at], maxes[at]
        elif where == len(bucket):
            maxes[at] = bucket[-1]

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
        """Keys before each bucket plus the total, after a change: the
        buckets are brought up to date first, and from now on they take a
        share of the keys before the next burst."""
        if self._room < 0:
            index = sorted(self._sizes)
            self._buckets = [
                index[at:at + BUCKET_KEYS] for at in range(0, len(index), BUCKET_KEYS)
            ]
            self._maxes = [bucket[-1] for bucket in self._buckets]
        starts = self._starts = [0, *accumulate(map(len, self._buckets))]
        self._counted.clear()
        self._room = int(len(self._sizes) * RESORT_SHARE)
        return starts

    def _locate(self, key: int) -> Tuple[int, int]:
        """``(bucket, offset)`` just past the last live key ``<= key``."""
        at = bisect.bisect_left(self._maxes, key)
        if at == len(self._maxes):
            return at, 0
        return at, bisect.bisect_right(self._buckets[at], key)

    def _between(self, start: Tuple[int, int], stop: Tuple[int, int]) -> List[int]:
        """A new list of the keys from position *start* up to *stop*."""
        (first, offset), (last, end) = start, stop
        buckets = self._buckets
        if first == last:  # an empty run may sit past the last bucket
            return buckets[first][offset:end] if end > offset else []
        keys = buckets[first][offset:]
        for bucket in buckets[first + 1:last]:
            keys += bucket
        if end:
            keys += buckets[last][:end]
        return keys

    def keys_in_range(self, lo: int, hi: int) -> List[int]:
        """Live keys in the circular arc ``(lo, hi]``, in clockwise order.

        ``lo == hi`` denotes the full ring (single-node system).
        """
        if self._starts is None:
            self._index()
        start = self._locate(lo)
        stop = start if lo == hi else self._locate(hi)
        if lo < hi:
            return self._between(start, stop)
        # Wrapping arc, or the full ring clockwise from just after lo:
        # (lo, MAX] ++ [0, hi]
        keys = self._between(start, (len(self._buckets), 0))
        keys += self._between((0, 0), stop)
        return keys

    def count_in_range(self, lo: int, hi: int) -> int:
        """Number of live keys in the arc ``(lo, hi]`` — the primary load.

        An arc asked again before the next change (a balancing round asks
        most nodes' loads twice) is answered from the last count.
        """
        starts = self._starts or self._index()
        if lo == hi:
            return starts[-1]
        count = self._counted.get((lo, hi))
        if count is None:
            first, offset = self._locate(lo)
            last, end = self._locate(hi)
            count = starts[last] + end - starts[first] - offset
            if lo > hi:
                count += starts[-1]
            self._counted[lo, hi] = count
        return count

    def bytes_in_range(self, lo: int, hi: int) -> int:
        """Total byte volume of live blocks in the arc ``(lo, hi]``."""
        return sum(map(self._sizes.__getitem__, self.keys_in_range(lo, hi)))
