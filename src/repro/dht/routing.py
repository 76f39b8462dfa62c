"""O(log n) lookup routing model (Chord-style greedy finger routing).

The paper's prototype routes lookups through Mercury, which maintains
``O(log n)`` long links and resolves a lookup in ``O(log n)`` hops.  For the
reproduction we model routing with the classic Chord finger rule computed
directly from the current ring: from position ``p``, the finger for level
``i`` points at ``successor(p + 2**i)``, and a lookup greedily takes the
largest finger that does not overshoot the target key.

Because load-balancing ID changes are *voluntary* leaves/rejoins, the paper
notes routing state can be repaired immediately (Section 8.1, footnote); we
therefore always route over the up-to-date ring rather than simulating
stale finger tables.

The greedy path depends on the key only through its owner: it is a function
of ``(source index, owner index, key == owner id)``, taken by the one walk
in :meth:`repro.dht.fingers.FingerTable.walk` over the ring's shared,
version-keyed table (:func:`finger_table_for`).

* :func:`route` — one lookup, one walk, plus ``dht.hop`` spans on request.
* :func:`route_many` — many lookups from one source: one walk per distinct
  ``(owner, exact)`` in the batch.  D2's locality-preserving keys make a
  task's lookups land on a few owners, so most of a batch reuses a path
  already walked.  Results are element-for-element those of :func:`route`.
* :func:`route_cold` — the original bisect-per-level implementation over
  512-bit ids, kept as the reference for equivalence tests and the cold
  side of ``benchmarks/bench_micro_route.py``.

The functions here return both the hop path (for latency accounting — each
hop is one network RTT leg in the recursive lookup) and the message count
(for Figure 9's lookup-traffic accounting).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dht.fingers import FingerTable
from repro.dht.keyspace import KEY_BITS, distance, in_interval
from repro.dht.ring import Ring


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a routed DHT lookup.

    ``path`` starts at the querying node and ends at the key's owner.
    ``messages`` counts protocol messages: one request per hop plus the
    final response routed back to the querier (recursive routing, as in
    Mercury).
    """

    key: int
    owner: str
    path: List[str]

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    @property
    def messages(self) -> int:
        # Each hop forwards the request once; the terminal node answers the
        # querier directly with one response message.
        return self.hops + 1


#: Shared per-ring finger tables, keyed weakly so dropping a ring drops its
#: routing state with it.  One table per ring; the table itself re-snapshots
#: whenever the ring's membership generation moves.
_TABLES: "weakref.WeakKeyDictionary[Ring, FingerTable]" = weakref.WeakKeyDictionary()


def finger_table_for(ring: Ring) -> FingerTable:
    """The shared precomputed finger table of *ring* (created on demand)."""
    table = _TABLES.get(ring)
    if table is None:
        table = FingerTable(ring)
        _TABLES[ring] = table
    return table


def _source_index(ring: Ring, table: FingerTable, source: str) -> int:
    if source not in ring:
        raise ValueError(f"source node {source!r} not in ring")
    return table.index_of_id(ring.position_of(source))


def _emit_hop_spans(
    path: Sequence[str], tracer, parent, now: float,
    leg_time: Optional[Callable[[str, str], float]],
) -> None:
    t = now
    for index in range(len(path) - 1):
        frm, to = path[index], path[index + 1]
        leg = leg_time(frm, to) if leg_time is not None else 0.0
        span = tracer.start_span("dht.hop", t, parent, frm=frm, to=to, hop=index)
        t += leg
        tracer.finish(span, t)


def route(
    ring: Ring,
    source: str,
    key: int,
    *,
    max_hops: int = 4 * KEY_BITS,
    tracer=None,
    parent=None,
    now: float = 0.0,
    leg_time: Optional[Callable[[str, str], float]] = None,
) -> LookupResult:
    """Route a lookup for *key* from node *source* over *ring*.

    Implements greedy finger routing: at each step the current node
    forwards to the finger (``successor(current + 2**i)`` for the largest
    ``i``) that lands inside the remaining arc ``(current, key]``, falling
    back to its immediate successor.  Terminates at the key's owner; paths
    are identical to :func:`route_cold`.

    With a span *tracer* and a live *parent* span, one ``dht.hop`` child
    span is emitted per hop leg, starting at *now* and advancing by
    ``leg_time(from, to)`` per leg (zero-duration hops when no *leg_time*
    is given).  A falsy tracer or parent costs one truthiness check.
    """
    table = finger_table_for(ring)
    source_index = _source_index(ring, table, source)
    owner_index = ring.successor_index(key)
    path = table.walk(
        source_index, owner_index, table.ids[owner_index] == key, max_hops
    )
    if tracer and parent:
        _emit_hop_spans(path, tracer, parent, now, leg_time)
    return LookupResult(key, path[-1], path)


def route_many(
    ring: Ring,
    source: str,
    keys: Sequence[int],
    *,
    max_hops: int = 4 * KEY_BITS,
) -> List[LookupResult]:
    """Resolve many lookups from one *source*, walking once per owner.

    The path to a key is determined by its owner and by whether the key
    sits exactly on the owner's id, so the batch walks the fingers once
    per distinct ``(owner index, exact)`` and every further key of that
    owner copies the walked path.  Returns one :class:`LookupResult` per
    key, in key order, each identical to what :func:`route` would produce
    and each owning its ``path`` list.

    This is the span-free hot path for high-volume lookup streams (the
    scale harness, cache warmers, learned-lookup training data); callers
    that need per-hop spans route keys individually via :func:`route`.
    """
    table = finger_table_for(ring)
    source_index = _source_index(ring, table, source)
    ids = table.ids
    successor_index = ring.successor_index
    walked: Dict[Tuple[int, bool], List[str]] = {}
    results: List[LookupResult] = []
    for key in keys:
        owner_index = successor_index(key)
        exact = ids[owner_index] == key
        path = walked.get((owner_index, exact))
        if path is None:
            path = walked[owner_index, exact] = table.walk(
                source_index, owner_index, exact, max_hops
            )
        else:
            path = path[:]  # each result owns its list
        results.append(LookupResult(key, path[-1], path))
    return results


def route_cold(
    ring: Ring,
    source: str,
    key: int,
    *,
    max_hops: int = 4 * KEY_BITS,
) -> LookupResult:
    """Reference implementation: greedy routing with per-level ring bisects.

    This is the pre-finger-table hot path, kept for equivalence testing
    and as the cold baseline in ``benchmarks/bench_micro_route.py``.  No
    span support — instrumented callers use :func:`route`.
    """
    if source not in ring:
        raise ValueError(f"source node {source!r} not in ring")
    owner = ring.successor(key)
    path = [source]
    current = source
    current_id = ring.position_of(current)
    hops = 0
    while current != owner:
        remaining = distance(current_id, key)
        if remaining == 0:
            break
        next_name, next_id = _best_finger(ring, current_id, key, remaining)
        if next_name == current:
            # Degenerate single-node arc; the successor must be the owner.
            next_name = ring.successor_of(current)
            next_id = ring.position_of(next_name)
        path.append(next_name)
        current = next_name
        current_id = next_id
        hops += 1
        if hops > max_hops:
            raise RuntimeError("routing failed to converge; ring state is inconsistent")
    return LookupResult(key=key, owner=owner, path=path)


def _best_finger(ring: Ring, current_id: int, key: int, remaining: int) -> Tuple[str, int]:
    """Farthest finger of the node at *current_id* not overshooting *key*.

    Returns ``(name, id)`` so callers never re-bisect the position of the
    node they just resolved.
    """
    # The largest usable finger level is bounded by the remaining distance:
    # a finger at 2**i with 2**i > remaining would overshoot.
    level = remaining.bit_length() - 1
    while level >= 0:
        target = (current_id + (1 << level)) % (1 << KEY_BITS)
        candidate = ring.successor(target)
        candidate_id = ring.position_of(candidate)
        # Usable if the candidate lies in (current, key] — it makes forward
        # progress without passing the owner.
        if candidate_id != current_id and in_interval(candidate_id, current_id, key):
            return candidate, candidate_id
        level -= 1
    # No finger makes progress: the owner is our immediate successor.
    fallback = ring.successor_of(ring.name_at(current_id))
    return fallback, ring.position_of(fallback)


def expected_hops(n_nodes: int) -> float:
    """Analytic expectation of greedy-finger hop count, ~0.5 * log2(n).

    Used by tests as a sanity envelope and by coarse analytical models.
    """
    if n_nodes <= 1:
        return 0.0
    return 0.5 * math.log2(n_nodes)
