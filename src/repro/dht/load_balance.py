"""Active load balancing (Karger–Ruhl item balancing, as used by Mercury).

D2's keys are *not* uniformly distributed, so consistent hashing cannot
balance storage.  Section 6 of the paper adopts the dynamic algorithm from
Karger & Ruhl (SPAA '04) as implemented in Mercury (SIGCOMM '04):

    Each node B periodically contacts another random node A (once per
    *probe interval*).  If A's load exceeds ``t`` times B's load, B changes
    its ID to become A's predecessor, taking half of A's load.  The ID
    change is a voluntary leave followed by a rejoin at the new position.

With ``t >= 4`` every node converges to within a constant factor of the
average load in ``O(log n)`` steps w.h.p.; the paper (and this
reproduction) uses ``t = 4``.

Only the *primary* replica count is used as the load value: ID changes only
directly affect primary ranges, and balanced primaries imply balanced
totals (footnote 3 in the paper).

The balancer is policy only — the mechanics of handing blocks off (pointer
creation, replica adjustment, migration accounting) are delegated to a
:class:`BalanceCoordinator`, implemented by the storage layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence

from repro.dht.ring import Ring, load_split_point
from repro.obs.metrics import MetricsRegistry

#: A target with fewer primary blocks than this is never split.
MIN_SPLIT_LOAD = 2
#: Consecutive move-free probe rounds that ``balance_until_stable`` takes
#: as stability.
QUIET_ROUNDS = 5


class BalanceCoordinator(Protocol):
    """Storage-layer operations the balancer needs.

    Implemented by :class:`repro.store.migration.StorageCoordinator`; tests
    provide lightweight fakes.
    """

    def primary_load(self, name: str) -> int:
        """Current primary-replica block count of node *name*."""
        ...

    def primary_keys(self, name: str) -> Sequence[int]:
        """Keys of the primary blocks held (or pointed to) by *name*:
        exactly those of its arc, in clockwise order from the arc's start
        (:func:`repro.dht.ring.load_split_point` takes their median)."""
        ...

    def execute_move(self, mover: str, new_id: int) -> None:
        """Perform the leave+rejoin of *mover* to position *new_id*.

        Responsible for handing the mover's old range to its successor and
        establishing pointers (or copies) for the newly adopted range.
        """
        ...


@dataclass(frozen=True)
class MoveRecord:
    """One completed load-balancing ID change (for logging and tests)."""

    time: float
    mover: str
    target: str
    old_id: int
    new_id: int
    mover_load_before: int
    target_load_before: int


class BalancerStats:
    """Balancer counters: a read-only view over metric counters.

    ``probes``/``triggered``/``skipped_small`` read the registry counters
    (``balance.*``) the balancer bumps; ``moves`` stays a plain list of
    :class:`MoveRecord` for logging and tests, mirrored by the
    ``balance.moves`` counter.
    """

    FIELDS = ("probes", "triggered", "skipped_small")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: registry.counter(f"balance.{name}") for name in self.FIELDS
        }
        self._moves_counter = registry.counter("balance.moves")
        self.moves: List[MoveRecord] = []

    def __getattr__(self, name: str) -> int:
        if name in self.FIELDS:
            return self._counters[name].value
        raise AttributeError(name)

    def record_move(self, record: MoveRecord) -> None:
        self.moves.append(record)
        self._moves_counter.inc()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)}" for f in self.FIELDS)
        return f"BalancerStats({fields}, moves={len(self.moves)})"


class KargerRuhlBalancer:
    """The paper's probe-and-split balancing policy over a :class:`Ring`."""

    def __init__(
        self,
        ring: Ring,
        coordinator: BalanceCoordinator,
        *,
        threshold: float = 4.0,
        rng: Optional[random.Random] = None,
        sampling: str = "membership",
        registry: Optional[MetricsRegistry] = None,
        spans=None,
    ) -> None:
        if threshold < 2.0:
            raise ValueError("threshold below 2 cannot converge (Karger-Ruhl requires t >= 4 for the proof)")
        if sampling not in ("membership", "random-walk"):
            raise ValueError(f"unknown sampling strategy {sampling!r}")
        self._ring = ring
        self._coordinator = coordinator
        self._threshold = threshold
        self._rng = rng if rng is not None else random.Random(0)
        # "membership" samples the global node list (simulation shortcut);
        # "random-walk" uses Mercury's decentralized sampling (see
        # repro.dht.sampling), which a real node could actually execute.
        self._sampling = sampling
        self._spans = spans  # repro.obs.spans.Tracer; falsy when disabled
        # Membership snapshot reused across probes until the ring changes
        # (probe_round used to rebuild this O(n) list for every probe).
        self._members: List[str] = []
        self._members_version = -1
        self.stats = BalancerStats(registry)

    def probe(self, prober: str, now: float = 0.0) -> Optional[MoveRecord]:
        """One balancing probe by node *prober*.

        *prober* samples a uniform-random other node (Mercury implements
        this with random walks; we sample the membership directly).  If the
        sampled node's primary load exceeds ``t`` times the prober's, the
        prober moves to the sampled node's load midpoint.
        """
        self.stats._counters["probes"].inc()
        target = self._sample_other(prober)
        if target is None:
            return None
        return self._maybe_move(prober, target, now)

    def probe_round(self, now: float = 0.0) -> List[MoveRecord]:
        """Every node probes once, in random order (one full probe interval)."""
        names = list(self._ring.names())
        self._rng.shuffle(names)
        moves = []
        for name in names:
            if name not in self._ring:
                continue  # cannot happen today, but stay safe under reentrancy
            record = self.probe(name, now)
            if record is not None:
                moves.append(record)
        return moves

    def balance_until_stable(
        self, *, max_rounds: int = 200, now: float = 0.0
    ) -> int:
        """Run probe rounds until several consecutive rounds trigger nothing.

        A single quiet round is weak evidence (probes sample targets
        randomly and can simply miss the one overloaded node), so
        stability requires :data:`QUIET_ROUNDS` consecutive move-free rounds.
        Returns the number of rounds executed.  Used to reach the paper's
        "simulate 3 days so node positions stabilize" initial condition
        without simulating wall-clock time.
        """
        quiet = 0
        for round_index in range(max_rounds):
            if self.probe_round(now):
                quiet = 0
            else:
                quiet += 1
                if quiet >= QUIET_ROUNDS:
                    if self._confirmation_probe(now) is None:
                        return round_index + 1
                    quiet = 0
        return max_rounds

    def _confirmation_probe(self, now: float) -> Optional[MoveRecord]:
        """Deterministic convergence check behind a quiet streak.

        Random probes can miss the one overloaded node for a whole quiet
        streak (with n nodes the chance is (1 - 1/(n-1))**(n*QUIET_ROUNDS)
        — small but real, and it silently ends :meth:`balance_until_stable`
        on a fully imbalanced ring).  The trigger rule is monotone in the
        load ratio, so probing the extreme pair directly settles it: if
        min-load → max-load does not trigger, no pair can.
        """
        if len(self._ring) < 2:
            return None
        names = sorted(self._ring.names())
        loads = {name: self._coordinator.primary_load(name) for name in names}
        prober = min(names, key=loads.__getitem__)
        target = max(names, key=loads.__getitem__)
        if prober == target:
            return None
        return self._maybe_move(prober, target, now)

    # ------------------------------------------------------------------

    def _sample_other(self, prober: str) -> Optional[str]:
        """Uniform-random node other than *prober*, or None if there is none.

        The single-node case is handled here (not just by callers), and the
        membership list is cached against :attr:`Ring.version` instead of
        being rebuilt on every probe.
        """
        if len(self._ring) < 2:
            return None
        if self._sampling == "random-walk":
            from repro.dht.sampling import sample_other

            return sample_other(self._ring, prober, self._rng)
        if self._members_version != self._ring.version:
            self._members = list(self._ring.names())
            self._members_version = self._ring.version
        names = self._members
        while True:
            candidate = names[self._rng.randrange(len(names))]
            if candidate != prober:
                return candidate

    def _maybe_move(self, prober: str, target: str, now: float) -> Optional[MoveRecord]:
        prober_load = self._coordinator.primary_load(prober)
        target_load = self._coordinator.primary_load(target)
        if target_load < MIN_SPLIT_LOAD:
            return None
        # Trigger rule from Section 6: move iff load(A) > t * load(B).  A
        # zero-load prober always helps a loaded target.
        if target_load <= self._threshold * prober_load:
            return None

        split = load_split_point(
            self._coordinator.primary_keys(target), self._ring.position_of(target)
        )
        if split is None:
            self.stats._counters["skipped_small"].inc()
            return None
        new_id = self._ring.free_position_at(split)
        if new_id == self._ring.position_of(prober):
            return None
        old_id = self._ring.position_of(prober)
        self.stats._counters["triggered"].inc()
        move_span = None
        if self._spans:
            move_span = self._spans.start_trace(
                "balance.move", now,
                mover=prober, target=target,
                mover_load=prober_load, target_load=target_load,
            )
        span_context = getattr(self._coordinator, "span_context", None)
        if move_span and span_context is not None:
            with span_context(move_span):
                self._coordinator.execute_move(prober, new_id)
        else:
            self._coordinator.execute_move(prober, new_id)
        if move_span:
            self._spans.finish(move_span, now)
        record = MoveRecord(
            time=now,
            mover=prober,
            target=target,
            old_id=old_id,
            new_id=new_id,
            mover_load_before=prober_load,
            target_load_before=target_load,
        )
        self.stats.record_move(record)
        return record


def normalized_std_dev(loads: Sequence[int]) -> float:
    """Load-imbalance metric from Section 10: stddev(load) / mean(load).

    Zero for a perfectly balanced system; the paper plots this over time in
    Figures 16 and 17.
    """
    if not loads:
        return 0.0
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in loads) / len(loads)
    return (variance ** 0.5) / mean


def max_over_mean(loads: Sequence[int]) -> float:
    """Ratio of the most loaded node to the mean (paper: 1.6x for D2)."""
    if not loads:
        return 0.0
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 0.0
    return max(loads) / mean
