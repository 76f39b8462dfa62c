"""The seeded mutants every guard is scored against.

A mutant is a deliberate bug: one or more ``old -> new`` text hunks in one
source file.  Each ``old`` must occur exactly once in its file, so a
refactor that moves the code a mutant names makes it fail loudly
(``tests/test_mutant_catalogue.py``) instead of silently scoring nothing.

Eight groups, in catalogue order:

* the mutants written by hand while building the ordered indexes, the
  one-commit flush, the folded read replay and the plan reuse, each
  named after the test that caught it then;
* one mutant per nondeterminism class the lint rules name (set order, a
  wall clock, a module-global write, an unseeded RNG, ``id()``);
* one mutant per remaining rule's own class (KEY001, PUR001, OBS002) and
  one for the class the runtime sanitizer claims: entropy the AST cannot
  resolve;
* one per class of the runner's own guards: a memo key that ignores a
  parameter the result depends on, and a computed cell the memo never
  holds, so a grid asked for twice simulates twice;
* one for the derived D2 prefix: a child's slot placed one level off;
* one for the repair burst: its backlog sample counted as one, not as
  the burst's size;
* two for the event counts, which the event tracer reads: a root span's
  finish left out of the span tracer's ``span.finish`` count, and a row
  of the kind table that reads another kind's counter;
* one for the paper's claims: a projection that swaps D2 and traditional.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple, Union


class Mutant(NamedTuple):
    id: str
    path: str               # relative to the repository root
    old: Tuple[str, ...]    # hunks, each replaced once by its ``new`` twin
    new: Tuple[str, ...]
    cls: str                # what kind of bug it is
    origin: str             # the guard or test it was written against


def mutant(id: str, path: str, old: Union[str, Tuple[str, ...]],
           new: Union[str, Tuple[str, ...]], cls: str, origin: str) -> Mutant:
    """A :class:`Mutant`; a single hunk may be given as two strings."""
    old = (old,) if isinstance(old, str) else old
    new = (new,) if isinstance(new, str) else new
    if len(old) != len(new):
        raise ValueError(f"{id}: {len(old)} old hunks, {len(new)} new")
    return Mutant(id, path, old, new, cls, origin)


#: Mutants that left the catalogue, with the reason; a matrix names none.
RETIRED = {
    "flush-ttl-not-cleared": "the store TTL it planted into is gone",
    "env-read-in-cached-cell": "an env read inside a cell can no longer make "
                               "one run return another run's bytes: nothing "
                               "persists across processes, and no guard caught it "
                               "once CACHE001 went with the on-disk run cache",
    "unregistered-event-kind": "no call site spells an event kind: a kind is a "
                               "row of the table the event tracer reads, and "
                               "event-kind-reads-another-counter plants into it",
}


def apply(mutant: Mutant, text: str) -> str:
    """*text* with every hunk of *mutant* replaced; ValueError if one is stale."""
    for old, new in zip(mutant.old, mutant.new):
        found = text.count(old)
        if found != 1:
            raise ValueError(
                f"{mutant.id}: hunk found {found} times in {mutant.path}: {old!r}")
        text = text.replace(old, new)
    return text


CACHE = "src/repro/core/lookup_cache.py"
DIRECTORY = "src/repro/store/block_store.py"
FLUSH = "src/repro/store/migration.py"
FSLAYER = "src/repro/fs/fslayer.py"
SCALE = "src/repro/analysis/scale.py"
CELLS = "src/repro/runner/cells.py"
KEYSCHEMES = "src/repro/fs/keyschemes.py"
KEYS = "src/repro/core/keys.py"
COMMON = "src/repro/experiments/common.py"

MUTANTS: Tuple[Mutant, ...] = (
    # -- the ordered indexes, held to their scan oracles -----------------
    mutant("cache-assumes-disjoint-arcs", CACHE,
           "        while min_lo[index] < key:",
           "        if min_lo[index] < key:",
           "ordered index", "LookupCacheMachine"),
    mutant("cache-no-tie-rule", CACHE,
           "                or entry.expires_at > best.expires_at\n"
           "                or (entry.expires_at == best.expires_at and entry.hi < best.hi)\n",
           "                or entry.expires_at > best.expires_at\n",
           "ordered index", "LookupCacheMachine"),
    mutant("cache-no-wrapping-list", CACHE,
           "        for entry in self._wrapping:",
           "        for entry in ():",
           "ordered index", "LookupCacheMachine"),
    mutant("directory-no-cancel", DIRECTORY,
           "            bucket.append(key)\n"
           "            maxes[at] = key\n",
           "            bucket.append(key)\n",
           "ordered index", "RingDirectoryMachine"),
    mutant("directory-deletes-neighbour", DIRECTORY,
           "        del bucket[where]",
           "        del bucket[where - 1]",
           "ordered index", "RingDirectoryMachine"),
    # -- one commit per flush, held to the per-key coordinator -----------
    mutant("flush-no-rescue", FLUSH,
           "            for key in removes_at.keys() & fresh.keys():  # rescued\n"
           "                del removes_at[key]\n",
           "",
           "flush", "FlushMachine"),
    mutant("flush-ledger-bump-on-empty", FLUSH,
           "        if count:\n"
           "            self.ledger.record_remove(self.sim.now, nbytes)\n",
           "        self.ledger.record_remove(self.sim.now, nbytes)\n"
           "        if count:\n",
           "flush", "FlushMachine"),
    mutant("flush-reversed-events", FLUSH,
           "GraceEntry(self, tuple(removes), deadline)",
           "GraceEntry(self, tuple(reversed(removes)), deadline)",
           "flush", "FlushMachine"),
    mutant("flush-zero-size-not-counted", FLUSH,
           "            if size is not None:\n"
           "                count += 1\n",
           "            if size:\n"
           "                count += 1\n",
           "flush", "FlushMachine"),
    mutant("flush-wrong-owners", FLUSH,
           "self.physical_at.update(zip(keys, owners))",
           "self.physical_at.update(zip(keys, owners[::-1]))",
           "flush", "FlushMachine"),
    mutant("flush-tracker-not-placed", FLUSH,
           "            if tracker is not None:\n"
           "                for key in keys:\n"
           "                    tracker.place(key, self.holders(key))\n",
           "",
           "flush", "FlushMachine"),
    mutant("flush-removes-at-left-after-immediate-removal", FLUSH,
           "                for key in removes_at.keys() & removes:\n"
           "                    del removes_at[key]\n",
           "",
           "flush", "FlushMachine"),
    mutant("flush-puts-not-summed", FSLAYER,
           "put_sizes[key] = put_sizes.get(key, 0) + size",
           "put_sizes[key] = size",
           "flush", "FlushMachine"),
    mutant("flush-written-removes-kept", FSLAYER,
           "[key for key in removes if key not in put_sizes and key in directory]",
           "[key for key in removes if key in directory]",
           "flush", "FlushMachine"),
    mutant("flush-bisect-right", DIRECTORY,
           "        where = bisect.bisect_left(bucket, key)",
           "        where = bisect.bisect_right(bucket, key)",
           "flush", "FlushMachine"),
    mutant("flush-wrong-annotation", FSLAYER,
           "            removes=len(removes),",
           "            removes=len(put_sizes),",
           "flush", "FlushMachine"),
    mutant("flush-validate-while-mutating", FLUSH,
           ("        check_items(removes)\n",
            "            self.directory._upsert(fresh)\n"),
           ("",
            "            self.directory._upsert(fresh)\n"
            "            check_items(removes)\n"),
           "flush", "FlushMachine"),
    # -- the read replay folded per distinct request ----------------------
    mutant("fold-forgets-multiplicity", SCALE,
           "hops += _fold_routes(digest, results, counts.values(), owners)",
           "hops += _fold_routes(digest, results, repeat(1), owners)",
           "read replay", "TestReadFoldAgainstPerOpOracle"),
    mutant("fold-owners-per-distinct-request", SCALE,
           "        owners = map(owner_of.__getitem__, requests)",
           "        owners = [owner_of[request] for request, n in counts.items()"
           " for _ in range(n)]",
           "read replay", "TestReadFoldAgainstPerOpOracle"),
    # -- plans kept for the run under fs.root_version ---------------------
    mutant("replay-root-version-restored", FSLAYER,
           "        self.root_version += 1\n",
           "",
           "read replay", "test_write_between_windows_replans"),
    mutant("replay-plans-clear-dropped", SCALE,
           "            plans.clear()\n",
           "",
           "read replay", "test_write_between_windows_replans"),
    # -- one per nondeterminism class the lint rules name -----------------
    mutant("set-iterated-into-row", "src/repro/experiments/extensions.py",
           "        names = list(ring.names())",
           "        names = list(set(ring.names()))",
           "nondeterminism: set order", "DET003"),
    mutant("wall-clock-into-health-sample", "src/repro/obs/health.py",
           ("from dataclasses import dataclass\n",
            'self.bank.sample("pointer.stall", now, stall, agg="max")'),
           ("import time\nfrom dataclasses import dataclass\n",
            'self.bank.sample("pointer.stall", time.time(), stall, agg="max")'),
           "nondeterminism: wall clock", "DET001"),
    mutant("global-write-leaks-into-next-cell", CELLS,
           ('@cell_kind("accel")\n',
            "    return run_accel_cell(**params)\n"),
           ('_ACCEL_ROWS: Dict[str, Any] = {}\n\n\n@cell_kind("accel")\n',
            '    return _ACCEL_ROWS.setdefault(params["scenario"], run_accel_cell(**params))\n'),
           "nondeterminism: module state", "PAR001"),
    mutant("unseeded-random", "src/repro/analysis/churn.py",
           "            random.Random(seed + 31 * trial + 1),",
           "            random.Random(),",
           "nondeterminism: entropy", "DET002"),
    mutant("id-in-key", KEYSCHEMES,
           "        prefix = self._prefixes.get(obj.ident)\n"
           "        if prefix is None:\n"
           "            prefix = self._prefixes[obj.ident] = self._make_prefix(obj, parent)\n",
           "        prefix = self._prefixes.get(id(obj))\n"
           "        if prefix is None:\n"
           "            prefix = self._prefixes[id(obj)] = self._make_prefix(obj, parent)\n",
           "nondeterminism: id()", "DET004"),
    # -- one per remaining rule's own class -------------------------------
    mutant("key-hand-packed-one-bit-off", KEYSCHEMES,
           "        return compose_block_key(self._prefix(node), block_number,"
           " version_hash(version))",
           "        return self._prefix(node) | (block_number << 32)"
           " | (version_hash(version) << 1)",
           "key layout", "KEY001"),
    mutant("lru-cache-reads-mutated-global", "src/repro/runner/executor.py",
           ("from dataclasses import dataclass\n",
            "def last_stats(kind: Optional[str] = None) -> Optional[RunnerStats]:\n"),
           ("from dataclasses import dataclass\nfrom functools import lru_cache\n",
            "@lru_cache(maxsize=None)\n"
            "def last_stats(kind: Optional[str] = None) -> Optional[RunnerStats]:\n"),
           "memo purity", "PUR001"),
    mutant("perf-counter-into-series-sample", "src/repro/store/repair.py",
           ("from dataclasses import dataclass, field\n",
            "self._backlog_series.sample(now, float(backlog), count)"),
           ("import time\nfrom dataclasses import dataclass, field\n",
            "self._backlog_series.sample(time.perf_counter(), float(backlog), count)"),
           "series timestamps", "OBS002"),
    mutant("clock-through-alias", "src/repro/analysis/accel.py",
           "    rng = Random(seed + 3)\n",
           "    clock = time.time\n"
           "    rng = Random(int(clock()))\n",
           "nondeterminism: entropy the AST cannot see", "detsan"),
    # -- the runner's own classes ------------------------------------------
    mutant("cache-key-ignores-trial", COMMON,
           "    keys = [(kind, tuple(sorted(cell.items()))) for cell in cells]\n",
           "    keys = [(kind, tuple(sorted(item for item in cell.items() if item[0] != \"trial\")))\n"
           "            for cell in cells]\n",
           "cache key", "golden grid_cells.json"),
    mutant("computed-cell-not-written-back", COMMON,
           "    for key in missing:\n"
           "        _remember(key, by_key[key])\n",
           "",
           "warm rerun", "ci runner-smoke parallel run"),
    # -- the D2 prefix derived from the parent's, held to the full encode --
    mutant("prefix-slot-one-level-off", KEYS,
           "    return parent_prefix | (slot << _SLOT_SHIFTS[depth])",
           "    return parent_prefix | (slot << _SLOT_SHIFTS[depth + 1])",
           "key layout", "TestDerivedPrefix"),
    # -- the repair burst, sampled once and counted as its size ------------
    mutant("repair-burst-counted-once", "src/repro/store/repair.py",
           "            self._update_backlog(scheduled)\n",
           "            self._update_backlog(1)\n",
           "counted sample", "TestRepairDeficitModel"),
    # -- the event counts, read from the span tracer and the registry ------
    mutant("root-finish-not-counted", "src/repro/obs/spans.py",
           "        if span.parent_no is None:\n"
           "            self._roots_finished += 1\n",
           "",
           "derived event count", "test_matches_the_emitting_tracer"),
    mutant("event-kind-reads-another-counter", "src/repro/obs/events.py",
           '    "pointer.flush": ("pointer.stabilized",),\n',
           '    "pointer.flush": ("pointer.adopted",),\n',
           "derived event count", "golden event_counts.json"),
    # -- the paper's claims, checked by every `python -m repro` run ---------
    mutant("imbalance-systems-swapped", "src/repro/experiments/balance.py",
           '            "system": system,\n            "mean_nsd": result.mean_nsd(),',
           '            "system": {"d2": "traditional", "traditional": "d2"}.get(system, system),\n'
           '            "mean_nsd": result.mean_nsd(),',
           "paper claim", "ci runner-smoke claims step"),
)
