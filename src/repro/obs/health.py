"""SLO rules, alerts, and the deployment health monitor.

Sits on top of :mod:`repro.obs.timeseries`: declarative :class:`SloRule`
objects are evaluated against closed time-series windows by an
:class:`SloEngine`, producing :class:`Alert` episodes with a
firing → active → resolved state machine.  :class:`HealthMonitor` binds
the two to a live :class:`repro.core.system.Deployment`: a periodic
sim-time task samples membership/repair/balancer/lookup-cache state at
every window boundary, closed windows flow through the rules, and the
resulting series + alert rows accumulate in a bounded export buffer that
:meth:`HealthMonitor.drain` pops for JSONL streaming (or that
:meth:`HealthMonitor.finish` returns wholesale at end of run).

Everything here runs on **sim-time** and is a pure function of the
deployment's deterministic evolution: alert timelines are byte-identical
between serial and ``--jobs N`` runs, which CI's ``health-smoke`` job
asserts.

Evaluation semantics, chosen for determinism and hysteresis:

* Rules are evaluated once per closed window, in row order.  Empty
  windows (``count == 0``) carry no information and freeze both the
  breach and the clear streak.
* A rule fires after ``for_windows`` consecutive breaching windows and
  the resulting alert resolves after ``resolve_windows`` consecutive
  clear windows — one flapping window never fires or resolves anything
  when the streak requirements are > 1.
* ``op`` is one of ``">="``, ``"<="`` (threshold comparisons) or
  ``"increasing"`` (breach when the value grew versus the previous
  non-empty window — the shape of "repair backlog keeps growing").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.events import EventTracer, register_kind
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import COUNTER, TimeSeriesBank

__all__ = [
    "Alert",
    "HealthMonitor",
    "SloEngine",
    "SloRule",
    "DEFAULT_RULES",
]

ALERT_FIRE = register_kind("health.alert_fire")
ALERT_RESOLVE = register_kind("health.alert_resolve")

SEVERITIES = ("info", "warning", "critical")
OPS = (">=", "<=", "increasing")


@dataclass(frozen=True)
class SloRule:
    """One declarative health objective over a named series.

    ``series`` names the time series the rule watches; the rule is
    evaluated independently per label set (so a per-node series yields
    per-node alerts).
    """

    name: str
    series: str
    op: str
    threshold: float = 0.0
    for_windows: int = 1
    resolve_windows: int = 1
    severity: str = "warning"
    description: str = ""

    def validate(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"rule {self.name!r}: unknown op {self.op!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"rule {self.name!r}: unknown severity {self.severity!r}"
            )
        if self.for_windows < 1 or self.resolve_windows < 1:
            raise ValueError(
                f"rule {self.name!r}: for_windows/resolve_windows must be >= 1"
            )


@dataclass
class Alert:
    """One firing episode of a rule against one label set."""

    rule: str
    severity: str
    series: str
    labels: Dict[str, str]
    fired_at: float
    fired_window: int
    value: float
    peak: float
    breach_windows: int = 1
    resolved_at: Optional[float] = None
    resolved_window: Optional[int] = None

    @property
    def active(self) -> bool:
        return self.resolved_at is None


class _RuleState:
    __slots__ = ("breach_streak", "clear_streak", "alert", "last_value")

    def __init__(self) -> None:
        self.breach_streak = 0
        self.clear_streak = 0
        self.alert: Optional[Alert] = None
        self.last_value: Optional[float] = None


#: The built-in cluster SLOs (see docs/observability.md).
DEFAULT_RULES: Tuple[SloRule, ...] = (
    SloRule(
        name="replica-deficit",
        series="repair.deficit",
        op=">=",
        threshold=1.0,
        for_windows=1,
        resolve_windows=2,
        severity="critical",
        description="keys holding fewer live replicas than configured",
    ),
    SloRule(
        name="load-imbalance",
        series="balance.imbalance",
        op=">=",
        threshold=4.0,
        for_windows=2,
        resolve_windows=2,
        severity="warning",
        description="max/mean per-node block load exceeds the bound",
    ),
    SloRule(
        name="hit-ratio-collapse",
        series="lookup.hit_ratio",
        op="<=",
        threshold=0.2,
        for_windows=2,
        resolve_windows=2,
        severity="warning",
        description="useful lookup-cache hit ratio collapsed",
    ),
    SloRule(
        name="pointer-stall",
        series="pointer.stall",
        op=">=",
        threshold=1.0,
        for_windows=3,
        resolve_windows=1,
        severity="critical",
        description="pointer table pending with no stabilization progress",
    ),
    SloRule(
        name="repair-backlog-growth",
        series="repair.backlog",
        op="increasing",
        for_windows=4,
        resolve_windows=1,
        severity="warning",
        description="repair backlog grew for several consecutive windows",
    ),
)

#: Series/alert rows a monitor buffers between drains; the oldest go first.
EXPORT_RETENTION = 32768


class SloEngine:
    """Evaluates rules against closed windows; owns the alert ledger."""

    def __init__(
        self,
        rules: Sequence[SloRule] = DEFAULT_RULES,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
    ) -> None:
        self.rules: Tuple[SloRule, ...] = tuple(rules)
        for rule in self.rules:
            rule.validate()
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        self._by_series: Dict[str, List[SloRule]] = {}
        for rule in self.rules:
            self._by_series.setdefault(rule.series, []).append(rule)
        self.alerts: List[Alert] = []
        self._states: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], _RuleState] = {}
        self._registry = registry
        self._tracer = tracer
        if registry is not None:
            self._c_fired = registry.counter("health.alerts_fired")
            self._c_resolved = registry.counter("health.alerts_resolved")
            self._g_active = registry.gauge("health.alerts_active")
        else:
            self._c_fired = self._c_resolved = self._g_active = None

    # -- evaluation -----------------------------------------------------

    def observe(self, rows: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Evaluate closed-window rows; returns alert transition rows."""
        transitions: List[Dict[str, Any]] = []
        for row in rows:
            if row.get("type") != "series":
                continue
            rules = self._by_series.get(row["name"])
            if not rules:
                continue
            for rule in rules:
                transitions.extend(self._evaluate(rule, row))
        if self._g_active is not None:
            self._g_active.set(sum(1 for alert in self.alerts if alert.active))
        return transitions

    def _evaluate(self, rule: SloRule, row: Dict[str, Any]) -> List[Dict[str, Any]]:
        if not row.get("count"):
            return []  # empty window: no information, streaks freeze
        value = row["value"]
        if value is None:
            return []
        labels = row.get("labels") or {}
        key = (rule.name, tuple(sorted(labels.items())))
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _RuleState()
        previous = state.last_value
        state.last_value = float(value)
        if rule.op == "increasing":
            breach = previous is not None and value > previous
        elif rule.op == ">=":
            breach = value >= rule.threshold
        else:
            breach = value <= rule.threshold
        events: List[Dict[str, Any]] = []
        if breach:
            state.breach_streak += 1
            state.clear_streak = 0
            if state.alert is not None:
                state.alert.breach_windows += 1
                if value > state.alert.peak:
                    state.alert.peak = float(value)
            elif state.breach_streak >= rule.for_windows:
                alert = Alert(
                    rule=rule.name,
                    severity=rule.severity,
                    series=rule.series,
                    labels=dict(labels),
                    fired_at=row["end"],
                    fired_window=row["window"],
                    value=float(value),
                    peak=float(value),
                )
                state.alert = alert
                self.alerts.append(alert)
                events.append(self._transition("fire", alert, row))
        else:
            state.clear_streak += 1
            state.breach_streak = 0
            alert = state.alert
            if alert is not None and state.clear_streak >= rule.resolve_windows:
                alert.resolved_at = row["end"]
                alert.resolved_window = row["window"]
                state.alert = None
                events.append(self._transition("resolve", alert, row))
        return events

    def _transition(
        self, event: str, alert: Alert, row: Dict[str, Any]
    ) -> Dict[str, Any]:
        if event == "fire":
            if self._c_fired is not None:
                self._c_fired.inc()
            kind = ALERT_FIRE
        else:
            if self._c_resolved is not None:
                self._c_resolved.inc()
            kind = ALERT_RESOLVE
        if self._tracer is not None:
            self._tracer.emit(kind)
        return {
            "type": "alert",
            "event": event,
            "rule": alert.rule,
            "severity": alert.severity,
            "series": alert.series,
            "labels": dict(alert.labels),
            "time": row["end"],
            "window": row["window"],
            "value": row["value"],
        }

    # -- reporting ------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        fired = len(self.alerts)
        resolved = sum(1 for alert in self.alerts if not alert.active)
        by_rule: Dict[str, int] = {}
        by_severity: Dict[str, int] = {}
        for alert in self.alerts:
            by_rule[alert.rule] = by_rule.get(alert.rule, 0) + 1
            by_severity[alert.severity] = by_severity.get(alert.severity, 0) + 1
        return {
            "rules": len(self.rules),
            "alerts_fired": fired,
            "alerts_resolved": resolved,
            "alerts_active": fired - resolved,
            "by_rule": dict(sorted(by_rule.items())),
            "by_severity": dict(sorted(by_severity.items())),
        }


class HealthMonitor:
    """Continuous health sampling + SLO evaluation over one deployment.

    Created via :meth:`repro.core.system.Deployment.enable_health_monitoring`.
    A :class:`~repro.sim.engine.PeriodicTask` samples at every window
    boundary; subsystems with intra-window dynamics worth catching (the
    repair scheduler) additionally push samples into the same bank via
    ``attach_timeseries`` so ``max``-aggregated gauges see transient
    spikes the boundary scan would miss.
    """

    #: Minimum lookups in a window before a hit-ratio sample is emitted —
    #: a two-lookup window should not trip ``hit-ratio-collapse``.
    MIN_RATIO_LOOKUPS = 16

    def __init__(
        self,
        deployment: Any,
        *,
        window: float = 900.0,
        node_level: bool = True,
    ) -> None:
        self.deployment = deployment
        self.window = float(window)
        self.node_level = bool(node_level)
        self.bank = TimeSeriesBank(width=self.window, epoch=deployment.sim.now)
        self.engine = SloEngine(registry=deployment.metrics, tracer=deployment.tracer)
        self.dropped_rows = 0
        self._export: List[Dict[str, Any]] = []
        self._task: Optional[Any] = None
        self._finished = False
        self._prev_stabilized: Optional[float] = None
        self._prev_hits: Optional[float] = None
        self._prev_misses: Optional[float] = None
        # Pre-created handles for the always-on series.
        self._s_nodes = self.bank.series("ring.nodes")
        self._s_events = self.bank.series("sim.events", kind=COUNTER)
        if deployment.repair is not None:
            deployment.repair.attach_timeseries(self.bank)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Take the baseline sample and begin per-window sampling."""
        if self._task is not None:
            return
        self.sample()
        self._task = self.deployment.sim.schedule_periodic(
            self.window, self._tick, first_delay=self.window
        )

    def _tick(self) -> None:
        self.sample()

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def finish(self) -> List[Dict[str, Any]]:
        """Final sample, flush partial windows, return remaining rows."""
        if not self._finished:
            self._finished = True
            self.sample()
            self.bank.flush()
            self._ingest(self.bank.drain())
            self.stop()
        return self.drain()

    # -- sampling -------------------------------------------------------

    def sample(self) -> None:
        """One sampling round at the current sim-time.

        Point samples land in the window the current boundary closes
        (windows are ``(start, end]``), then the bank closes completed
        windows and the engine evaluates them.
        """
        deployment = self.deployment
        now = deployment.sim.now
        self._s_nodes.sample(now, float(len(deployment.ring)))
        self._s_events.sample(
            now, float(deployment.metrics.counter("sim.events_fired").value)
        )
        if deployment.repair is not None:
            self._sample_repair(now)
        self._sample_pointers(now)
        if deployment.membership is not None:
            self._sample_membership(now)
        self._sample_lookups(now)
        if self.node_level:
            self._sample_loads(now)
        self.bank.advance(now)
        self._ingest(self.bank.drain())

    def _sample_repair(self, now: float) -> None:
        deployment = self.deployment
        repair = deployment.repair
        tracker = repair.tracker
        want = min(deployment.store.replica_count, len(deployment.ring))
        deficit = 0
        per_node: Dict[str, int] = {}
        for key in tracker.tracked_keys():
            if tracker.live_count(key) < want:
                deficit += 1
                if self.node_level:
                    owner = deployment.ring.successor(key)
                    per_node[owner] = per_node.get(owner, 0) + 1
        self.bank.sample("repair.deficit", now, float(deficit), agg="max")
        self.bank.sample("repair.backlog", now, float(repair.backlog()), agg="max")
        self.bank.sample(
            "repair.completed", now,
            float(deployment.metrics.counter("repair.completed").value),
            kind=COUNTER,
        )
        for node in sorted(per_node):
            self.bank.sample(
                "node.deficit", now, float(per_node[node]), agg="max", node=node
            )

    def _sample_pointers(self, now: float) -> None:
        deployment = self.deployment
        pending = len(deployment.store.pointer_table)
        stabilized = float(
            deployment.metrics.counter("pointer.stabilized").value
        )
        progressed = (
            self._prev_stabilized is None
            or stabilized > self._prev_stabilized
        )
        stall = 0.0 if (progressed or pending == 0) else float(pending)
        self._prev_stabilized = stabilized
        self.bank.sample("pointer.stall", now, stall, agg="max")

    def _sample_membership(self, now: float) -> None:
        metrics = self.deployment.metrics
        for name in ("membership.joins", "membership.leaves",
                     "membership.crashes"):
            self.bank.sample(
                name, now, float(metrics.counter(name).value), kind=COUNTER
            )

    def _sample_lookups(self, now: float) -> None:
        metrics = self.deployment.metrics
        hits = float(metrics.counter("lookup.hits").value)
        misses = float(metrics.counter("lookup.misses").value)
        prev_hits = self._prev_hits if self._prev_hits is not None else 0.0
        prev_misses = self._prev_misses if self._prev_misses is not None else 0.0
        delta = (hits - prev_hits) + (misses - prev_misses)
        if self._prev_hits is None:
            # Baseline round: record the starting totals, emit nothing.
            self._prev_hits, self._prev_misses = hits, misses
            return
        if delta < self.MIN_RATIO_LOOKUPS:
            # Too few lookups for a meaningful ratio; let them accumulate
            # into the next window instead of emitting noise.
            return
        self._prev_hits, self._prev_misses = hits, misses
        self.bank.sample(
            "lookup.hit_ratio", now, (hits - prev_hits) / delta
        )

    def _sample_loads(self, now: float) -> None:
        loads = self.deployment.store.total_loads()
        if not loads:
            return
        mean = sum(loads.values()) / len(loads)
        if mean > 0:
            self.bank.sample(
                "balance.imbalance", now, max(loads.values()) / mean
            )
        for node in sorted(loads):
            self.bank.sample(
                "node.load", now, float(loads[node]), node=node
            )

    # -- export ---------------------------------------------------------

    def _ingest(self, rows: List[Dict[str, Any]]) -> None:
        transitions = self.engine.observe(rows)
        for row in rows:
            self._buffer(row)
        for row in transitions:
            self._buffer(row)

    def _buffer(self, row: Dict[str, Any]) -> None:
        if len(self._export) >= EXPORT_RETENTION:
            del self._export[0]
            self.dropped_rows += 1
        self._export.append(row)

    def drain(self) -> List[Dict[str, Any]]:
        """Pop buffered series/alert rows (oldest first) for streaming."""
        rows = self._export
        self._export = []
        return rows

    def summary(self) -> Dict[str, Any]:
        """Deterministic roll-up merged into reports and snapshots."""
        result = self.engine.summary()
        result.update(self.bank.stats())
        result["window"] = self.window
        result["dropped_export_rows"] = self.dropped_rows
        return result
