"""Lightweight metrics primitives: counters, gauges, reservoir histograms.

Every instrumented component in the reproduction (lookup caches, the
balancer, the storage coordinator, the simulator itself) registers its
metrics in a :class:`MetricsRegistry`.  The registry is the one place a
run's counters live, so an experiment driver can snapshot the whole system
in a single call and diff the snapshot against an earlier run — the paper's
headline numbers (cache miss rate, lookup traffic, balancer moves, pointer
churn) are all derived from counters like these.

Design constraints:

* **zero dependencies** — plain dataclass-free Python, JSON-friendly
  snapshots;
* **cheap on the hot path** — incrementing a counter is one attribute add;
  histograms use bounded reservoir sampling (Vitter's algorithm R) so
  memory stays constant however long a simulation runs;
* **deterministic** — a histogram's reservoir RNG is seeded from the metric
  name, so identical runs produce identical snapshots.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, Iterator, List, Mapping, Optional, Union


class MetricsError(Exception):
    """Raised on invalid registry usage (name reuse across metric types)."""


class Counter:
    """A monotonically *intended* cumulative count (floats allowed)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Union[int, float] = 0

    @property
    def value(self) -> Union[int, float]:
        return self._value

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    def add(self, amount: Union[int, float]) -> None:
        """Adjust by a signed amount."""
        self._value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self._value})"


class Gauge:
    """A point-in-time value, overwritten on every :meth:`set`."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Union[int, float] = 0

    @property
    def value(self) -> Union[int, float]:
        return self._value

    def set(self, value: Union[int, float]) -> None:
        self._value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self._value})"


class Histogram:
    """Streaming distribution summary with a bounded reservoir.

    Exact count/total/min/max; quantiles are estimated from a uniform
    random sample of *reservoir_size* observations (algorithm R), which is
    plenty for the latency and hop-count distributions the experiments
    report.
    """

    __slots__ = ("name", "reservoir_size", "count", "total", "min", "max",
                 "_reservoir", "_rng")

    def __init__(self, name: str, reservoir_size: int = 512) -> None:
        if reservoir_size < 1:
            raise MetricsError("reservoir_size must be >= 1")
        self.name = name
        self.reservoir_size = reservoir_size
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir: List[float] = []
        # Seed from the name so identical runs give identical snapshots.
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._reservoir) < self.reservoir_size:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.reservoir_size:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the reservoir sample (0 <= p <= 100)."""
        if not 0.0 <= p <= 100.0:
            raise MetricsError(f"percentile must be in [0, 100], got {p}")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        rank = min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* into this histogram (worker → parent aggregation).

        Count/total/min/max combine exactly.  The reservoirs concatenate;
        when the union overflows, each side contributes slots proportional
        to its observation count, down-sampled by an RNG seeded from the
        metric name and the merged count — so merging identical inputs
        always yields an identical reservoir.
        """
        if other.count == 0:
            return self
        self_count, other_count = self.count, other.count
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        combined = self._reservoir + other._reservoir
        size = self.reservoir_size
        if len(combined) > size:
            rng = random.Random(
                zlib.crc32(f"{self.name}|merge|{self.count}".encode("utf-8"))
            )
            take_self = min(
                len(self._reservoir),
                max(0, round(size * self_count / (self_count + other_count))),
            )
            take_other = min(len(other._reservoir), size - take_self)
            take_self = min(len(self._reservoir), size - take_other)
            combined = rng.sample(self._reservoir, take_self) + rng.sample(
                other._reservoir, take_other
            )
        self._reservoir = combined
        return self

    @classmethod
    def from_snapshot(cls, name: str, snapshot: Mapping[str, object],
                      reservoir_size: int = 512) -> "Histogram":
        """Rebuild a mergeable histogram from a snapshot dict.

        Exact fields restore exactly; quantiles are only as good as the
        snapshot's ``reservoir`` (present when it was taken with
        ``include_reservoir=True``, empty otherwise).
        """
        histo = cls(name, reservoir_size)
        histo.count = int(snapshot.get("count", 0))
        histo.total = float(snapshot.get("total", 0.0))
        if histo.count:
            histo.min = float(snapshot.get("min", 0.0))
            histo.max = float(snapshot.get("max", 0.0))
        reservoir = snapshot.get("reservoir", [])
        if isinstance(reservoir, (list, tuple)):
            histo._reservoir = [float(v) for v in reservoir[:reservoir_size]]
        return histo

    def snapshot(self, include_reservoir: bool = False) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }
        if include_reservoir:
            payload["reservoir"] = list(self._reservoir)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count})"


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metrics for one system instance (one deployment, one run).

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same name returns the same object, so independent modules can share
    an aggregate metric without coordination.  Reusing a name across
    *types* is a bug and raises :class:`MetricsError`.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, kind: type, *args) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise MetricsError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        metric = kind(name, *args)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, reservoir_size: int = 512) -> Histogram:
        return self._get_or_create(name, Histogram, reservoir_size)

    def register(self, metric: Metric) -> Metric:
        """Adopt an externally built metric (e.g. a merged histogram)."""
        existing = self._metrics.get(metric.name)
        if existing is not None and existing is not metric:
            raise MetricsError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    def snapshot(self, include_reservoirs: bool = False) -> Dict[str, Dict[str, object]]:
        """JSON-ready snapshot: ``{counters, gauges, histograms}``.

        With ``include_reservoirs`` each histogram also carries its raw
        reservoir sample, which is what lets a parent process rebuild and
        :meth:`Histogram.merge` worker histograms instead of dropping them.
        """
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.snapshot(include_reservoir=include_reservoirs)
        return {"counters": counters, "gauges": gauges, "histograms": histograms}
