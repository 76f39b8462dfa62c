"""Reference models: the code the ordered indexes of PR 16 replaced.

Kept in the test tree so that ``src/`` has one ``_index()`` and one
``_find()``.  The model-based tests hold the indexes to these answer for
answer; the shape gates of ``benchmarks/bench_micro_core.py`` time against
them.
"""

from repro.core.lookup_cache import LookupCache
from repro.dht.keyspace import in_interval
from repro.store.block_store import BlockDirectory, BlockDirectoryError


class ScanLookupCache(LookupCache):
    """The lookup cache as it was: every probe asks every entry."""

    def _find(self, key):
        best = None
        for entry in self._entries:
            if entry.covers(key) and (best is None or entry.expires_at > best.expires_at):
                best = entry
        return best

    def _remove_entry(self, entry):
        index = self._entries.index(entry)
        del self._entries[index]
        del self._his[index]


class ResortingDirectory(BlockDirectory):
    """The block directory as it was: any change to the key set is answered
    by re-sorting all of it at the next query."""

    def _note(self, key, added):
        self._pending = None


class SortedDictDirectory:
    """A dict of sizes, sorted and filtered afresh on every query."""

    def __init__(self):
        self.sizes = {}

    def add(self, key, size):
        if key in self.sizes:
            raise BlockDirectoryError(f"block {key:#x} already present")
        self.sizes[key] = size

    def put(self, key, size):
        delta = size - self.sizes.get(key, 0)
        self.sizes[key] = size
        return delta

    def remove(self, key):
        if key not in self.sizes:
            raise BlockDirectoryError(f"block {key:#x} not present")
        return self.sizes.pop(key)

    def discard(self, key):
        return self.sizes.pop(key, None)

    def keys_in_range(self, lo, hi):
        keys = sorted(self.sizes)
        clockwise = [k for k in keys if k > lo] + [k for k in keys if k <= lo]
        return [k for k in clockwise if in_interval(k, lo, hi)]

    def count_in_range(self, lo, hi):
        return len(self.keys_in_range(lo, hi))

    def bytes_in_range(self, lo, hi):
        return sum(self.sizes[k] for k in self.keys_in_range(lo, hi))

    def median_key_in_range(self, lo, hi):
        keys = self.keys_in_range(lo, hi)
        if len(keys) < 2 or keys[(len(keys) - 1) // 2] == hi:
            return None
        return keys[(len(keys) - 1) // 2]
