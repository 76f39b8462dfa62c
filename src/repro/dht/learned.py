"""Online-trained learned key-range → node index (*A Distributed Learned
Hash Table*, PAPERS.md).

The lookup cache (Section 5) remembers *exact* ranges a client has already
resolved; finger routing resolves everything else in ``O(log n)`` hops.
This module adds the third acceleration tier: a **piecewise-linear model of
the ring's key→owner CDF**, trained online from the ground truth every
routed lookup produces anyway.  Segments divide the *observed key domain*
(the span between the smallest and largest sampled keys, recomputed at
every refit), not the whole keyspace, and every feature is the key's
position *within that integer domain*: locality-preserving key schemes
concentrate a volume's keys on an arc so narrow that a key's absolute
fraction of the 2^512 space is constant to float precision — only the
domain-relative big-integer ratio still resolves individual keys.  A
trained index predicts the owning node in O(1) — one segment selection
plus one fused multiply-add — and the
prediction is then *verified* against the ring like a real learned-DHT
client verifies against the contacted node: the predicted node forwards
along its neighbors for up to :attr:`LearnedIndex.max_probe` hops, and a
prediction that lands farther away than that is a **mispredict** that falls
back to plain finger routing (byte-identical to
:func:`repro.dht.routing.route` — the accounting never lies about hops).

Determinism contract (mirrors :class:`repro.dht.fingers.FingerTable`):

* all training state derives from a seeded reservoir RNG plus the observed
  ``(key, owner)`` stream — identical runs train identical models;
* the fitted model is keyed to :attr:`repro.dht.ring.Ring.version`; any
  join/leave/position change invalidates the model *and* its training
  samples on the next access (stale samples describe a ring that no longer
  exists), so a churned index falls back to routing until retrained;
* retraining fires at fixed observation counts, never on wall-clock time.

Metrics: ``dht.learned.hit`` / ``dht.learned.mispredict`` /
``dht.learned.retrain`` counters (plus ``dht.learned.invalidate`` for
ring-version resets), and a ``dht.learned.retrain`` event kind, so
Figure-9 style traffic accounting can separate learned hits from fallback
routes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dht.ring import Ring
from repro.dht.routing import LookupResult, route
from repro.obs.events import EventTracer, register_kind
from repro.obs.metrics import MetricsRegistry

LEARNED_RETRAIN = register_kind("dht.learned.retrain")

#: Defaults sized for the scales the experiments run at: ~40 nodes per
#: segment at 10^4 nodes keeps per-segment fits near-linear, and the
#: reservoir bounds training memory at ``segments * samples_per_segment``
#: pairs regardless of run length.
DEFAULT_SEGMENTS = 256
DEFAULT_SAMPLES_PER_SEGMENT = 32
DEFAULT_MIN_OBSERVATIONS = 64
DEFAULT_RETRAIN_INTERVAL = 1024
DEFAULT_MAX_PROBE = 8


@dataclass(frozen=True)
class LearnedLookup:
    """Outcome of one learned-index lookup.

    ``result`` is the routed outcome: on a **hit** its path runs from the
    querier through the predicted node (plus bounded neighbor forwarding)
    to the owner; on a **mispredict** (or while untrained) it is exactly
    what :func:`repro.dht.routing.route` returns.  ``extra_messages``
    counts the wasted probe of a mispredicted node — it is part of the
    lookup's traffic bill even though it is off the final path.
    """

    result: LookupResult
    predicted: Optional[str]
    hit: bool
    extra_messages: int = 0

    @property
    def messages(self) -> int:
        return self.result.messages + self.extra_messages


class LearnedIndex:
    """Piecewise-linear key→owner model, trained online, version-keyed.

    Parameters
    ----------
    segments:
        Number of equal slices of the *observed key domain*, each with
        its own linear fit (the domain is re-derived at every refit).
    samples_per_segment:
        Scales the single shared reservoir (algorithm R, seeded —
        deterministic) to ``segments * samples_per_segment`` pairs.
    min_observations:
        Observations before the first fit; the index routes everything
        until then.
    retrain_interval:
        Observations between refits once trained.
    max_probe:
        Neighbor hops the predicted node may forward before the lookup is
        declared mispredicted and re-routed.
    """

    def __init__(
        self,
        ring: Ring,
        *,
        segments: int = DEFAULT_SEGMENTS,
        samples_per_segment: int = DEFAULT_SAMPLES_PER_SEGMENT,
        min_observations: int = DEFAULT_MIN_OBSERVATIONS,
        retrain_interval: int = DEFAULT_RETRAIN_INTERVAL,
        max_probe: int = DEFAULT_MAX_PROBE,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
    ) -> None:
        if segments < 1:
            raise ValueError(f"segments must be >= 1, got {segments}")
        if samples_per_segment < 1:
            raise ValueError(
                f"samples_per_segment must be >= 1, got {samples_per_segment}"
            )
        if max_probe < 0:
            raise ValueError(f"max_probe must be >= 0, got {max_probe}")
        self._ring = ring
        self.segments = segments
        self.samples_per_segment = samples_per_segment
        self.min_observations = max(1, min_observations)
        self.retrain_interval = max(1, retrain_interval)
        self.max_probe = max_probe
        self._rng = random.Random(seed)
        self._tracer = tracer
        metrics = registry if registry is not None else MetricsRegistry()
        self._c_hit = metrics.counter("dht.learned.hit")
        self._c_mispredict = metrics.counter("dht.learned.mispredict")
        self._c_retrain = metrics.counter("dht.learned.retrain")
        self._c_invalidate = metrics.counter("dht.learned.invalidate")
        #: Reservoir bound: the model never holds more training pairs.
        self.sample_capacity = segments * samples_per_segment
        # Fitted state, valid only while _version == ring.version.
        self._version = -1
        self._ids: Tuple[int, ...] = ()
        self._names: Tuple[str, ...] = ()
        self._model: Optional[List[Optional[Tuple[float, float]]]] = None
        self._domain: Tuple[int, int] = (0, 0)  # integer keys: (lo, hi)
        self._samples: List[Tuple[int, int]] = []  # (key, owner index)
        self._observed = 0
        self._since_fit = 0

    # ------------------------------------------------------------------
    # snapshot / invalidation

    def refresh(self) -> None:
        """Invalidate the model if the ring's membership generation moved.

        Training samples are dropped with the model: an observed
        ``(key, owner index)`` pair is only meaningful against the snapshot
        it was observed under.
        """
        ring = self._ring
        if self._version == ring.version:
            return
        if self._version != -1:
            self._c_invalidate.inc()
        self._ids = tuple(ring.positions())
        self._names = tuple(ring.names())
        self._model = None
        self._domain = (0, 0)
        self._samples = []
        self._observed = 0
        self._since_fit = 0
        self._version = ring.version

    @property
    def trained(self) -> bool:
        self.refresh()
        return self._model is not None

    # ------------------------------------------------------------------
    # online training

    def _fraction(self, key: int) -> float:
        """Position of *key* within the fitted integer domain.

        The ratio is taken over Python big integers *before* the float
        conversion, so two keys differing only in their low-order bits —
        indistinguishable as absolute fractions of the 2^512 space —
        still map to distinct features.  Keys outside the domain
        extrapolate (values below 0 or above 1).
        """
        lo, hi = self._domain
        span = hi - lo
        if span <= 0:
            return 0.0
        return (key - lo) / span

    def _segment_of(self, fraction: float) -> int:
        """Segment index of *fraction* (domain-relative, clamped)."""
        index = int(fraction * self.segments)
        if index < 0:
            return 0
        if index >= self.segments:
            return self.segments - 1
        return index

    def observe(self, key: int, owner_index: int) -> None:
        """Feed one ground-truth ``(key, owner ring-index)`` pair.

        Reservoir-samples into the shared sample pool (algorithm R) and
        refits at the fixed observation thresholds.  Callers must have
        called :meth:`refresh` (every public lookup/predict path does).
        """
        self._observed += 1
        if len(self._samples) < self.sample_capacity:
            self._samples.append((key, owner_index))
        else:
            slot = self._rng.randrange(self._observed)
            if slot < self.sample_capacity:
                self._samples[slot] = (key, owner_index)
        self._since_fit += 1
        if self._model is None:
            if self._observed >= self.min_observations:
                self._fit()
        elif self._since_fit >= self.retrain_interval:
            self._fit()

    def _fit(self) -> None:
        """Refit: re-derive the domain, re-bucket the samples, fit lines.

        The domain is the integer span of the *sampled* keys, so a
        workload confined to one locality arc still spreads across all
        segments — each fit covers ~1/segments of the keys actually seen.
        """
        samples = sorted(self._samples)
        self._domain = (samples[0][0], samples[-1][0])
        buckets: List[List[Tuple[float, int]]] = [[] for _ in range(self.segments)]
        for key, owner_index in samples:
            fraction = self._fraction(key)
            buckets[self._segment_of(fraction)].append((fraction, owner_index))
        model: List[Optional[Tuple[float, float]]] = [
            _fit_segment(bucket) for bucket in buckets
        ]
        self._model = model
        self._since_fit = 0
        self._c_retrain.inc()
        if self._tracer is not None:
            self._tracer.emit(LEARNED_RETRAIN)

    # ------------------------------------------------------------------
    # prediction

    def predict(self, key: int) -> Optional[int]:
        """Predicted owner ring-index for *key*, or None while untrained.

        O(1): one segment select and one linear evaluation; no searching.
        """
        self.refresh()
        model = self._model
        if model is None or not self._ids:
            return None
        fraction = self._fraction(key)
        entry = model[self._segment_of(fraction)]
        if entry is None:
            return None
        slope, intercept = entry
        index = int(slope * fraction + intercept + 0.5)
        last = len(self._ids) - 1
        if index < 0:
            return 0
        if index > last:
            return last
        return index

    def _locate(self, start: int, key: int) -> Optional[List[int]]:
        """Hop indexes from *start* to the owner of *key*, or None if the
        owner lies more than :attr:`max_probe` neighbor steps away.

        The returned list begins at *start* and ends at the owner (it is
        the forwarding chain a real predicted node would relay along its
        successor/predecessor links).
        """
        ids = self._ids
        size = len(ids)
        if size == 1:
            return [0]
        hops = [start]
        index = start
        if ids[index] < key:
            # Owner is at or beyond the next larger id (index 0 on wrap).
            while ids[index] < key:
                if index == size - 1:
                    hops.append(0)
                    return hops if len(hops) - 1 <= self.max_probe else None
                index += 1
                hops.append(index)
                if len(hops) - 1 > self.max_probe:
                    return None
            return hops
        # ids[index] >= key: walk back while the predecessor still covers key.
        while index > 0 and ids[index - 1] >= key:
            index -= 1
            hops.append(index)
            if len(hops) - 1 > self.max_probe:
                return None
        return hops

    # ------------------------------------------------------------------
    # the lookup path

    def lookup(self, source: str, key: int) -> LearnedLookup:
        """Resolve *key* from *source*: predicted O(1) path, else routing.

        On a **hit** the path is ``source → predicted node → (≤ max_probe
        neighbor forwards) → owner`` and ``dht.learned.hit`` increments.
        On a **mispredict** the wasted probe is billed as one extra
        message, ``dht.learned.mispredict`` increments, and the returned
        ``result`` is *exactly* ``route(ring, source, key)`` — path, owner,
        and message count all byte-identical to the unaccelerated lookup.
        Every fallback feeds the observed owner back into training.
        """
        self.refresh()
        predicted_index = self.predict(key)
        predicted = self._names[predicted_index] if predicted_index is not None else None
        if predicted_index is not None:
            hop_indexes = self._locate(predicted_index, key)
            if hop_indexes is not None:
                names = self._names
                path = [source]
                for hop in hop_indexes:
                    if names[hop] != path[-1]:
                        path.append(names[hop])
                result = LookupResult(key=key, owner=names[hop_indexes[-1]], path=path)
                self._c_hit.inc()
                self.observe(key, hop_indexes[-1])
                return LearnedLookup(result=result, predicted=predicted, hit=True)
        result = route(self._ring, source, key)
        self.observe(key, self._ring.successor_index(key))
        if predicted is not None:
            self._c_mispredict.inc()
            return LearnedLookup(
                result=result, predicted=predicted, hit=False, extra_messages=1
            )
        return LearnedLookup(result=result, predicted=None, hit=False)

    # ------------------------------------------------------------------
    # introspection

    def stats(self) -> dict:
        """JSON-ready training-state summary (for reports and tests)."""
        self.refresh()
        model = self._model
        return {
            "trained": model is not None,
            "observations": self._observed,
            "segments": self.segments,
            "segments_fit": (
                sum(1 for entry in model if entry is not None) if model else 0
            ),
            "hits": self._c_hit.value,
            "mispredicts": self._c_mispredict.value,
            "retrains": self._c_retrain.value,
            "invalidations": self._c_invalidate.value,
        }


def _fit_segment(samples: List[Tuple[float, int]]) -> Optional[Tuple[float, float]]:
    """Least-squares line through one segment's ``(fraction, index)`` pairs.

    One sample fits a constant; none fits nothing (the segment stays on
    the routed path until a lookup lands in it).
    """
    count = len(samples)
    if count == 0:
        return None
    if count == 1:
        return (0.0, float(samples[0][1]))
    mean_u = sum(u for u, _ in samples) / count
    mean_i = sum(i for _, i in samples) / count
    var = sum((u - mean_u) ** 2 for u, _ in samples)
    if var <= 0.0:
        return (0.0, mean_i)
    cov = sum((u - mean_u) * (i - mean_i) for u, i in samples)
    slope = cov / var
    return (slope, mean_i - slope * mean_u)
