"""Tests for repro.obs.health and the health CLI: SLO hysteresis,
monitor lifecycle on a live deployment, and fire/resolve cycles."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.system import build_deployment
from repro.obs.health import DEFAULT_RULES, SloEngine, SloRule
from repro.obs.healthcli import main as health_main


def series_row(name, window, value, *, count=1, labels=None, width=10.0):
    return {
        "type": "series",
        "name": name,
        "kind": "gauge",
        "labels": dict(labels or {}),
        "window": window,
        "start": window * width,
        "end": (window + 1) * width,
        "count": count,
        "value": value,
    }


def feed(engine, name, values, start_window=0, **kwargs):
    transitions = []
    for offset, value in enumerate(values):
        count = 0 if value is None else 1
        transitions.extend(engine.observe([
            series_row(name, start_window + offset, value, count=count, **kwargs)
        ]))
    return transitions


# ---------------------------------------------------------------------------
# rule validation


def test_rule_validation_errors():
    with pytest.raises(ValueError):
        SloRule(name="x", series="s", op="~=").validate()
    with pytest.raises(ValueError):
        SloRule(name="x", series="s", op=">=", severity="fatal").validate()
    with pytest.raises(ValueError):
        SloRule(name="x", series="s", op=">=", for_windows=0).validate()
    with pytest.raises(ValueError):
        SloEngine([
            SloRule(name="dup", series="a", op=">="),
            SloRule(name="dup", series="b", op=">="),
        ])


def test_default_rules_are_valid():
    engine = SloEngine(DEFAULT_RULES)
    assert {rule.name for rule in engine.rules} == {
        "replica-deficit", "load-imbalance", "hit-ratio-collapse",
        "pointer-stall", "repair-backlog-growth",
    }


# ---------------------------------------------------------------------------
# fire/resolve hysteresis


def test_fire_and_resolve_hysteresis():
    rule = SloRule(name="r", series="s", op=">=", threshold=5.0,
                   for_windows=2, resolve_windows=2)
    engine = SloEngine([rule])
    # One breach window is not enough; the second fires; one clear window
    # is not enough to resolve; the second resolves.
    events = feed(engine, "s", [7.0, 8.0, 1.0, 9.0])
    assert [(e["event"], e["window"]) for e in events] == [("fire", 1)]
    # The clear streak was reset by the re-breach at window 3: two more
    # consecutive clears are needed.
    events = feed(engine, "s", [1.0, 1.0], start_window=4)
    assert [(e["event"], e["window"]) for e in events] == [("resolve", 5)]
    summary = engine.summary()
    assert summary["alerts_fired"] == 1
    assert summary["alerts_resolved"] == 1
    assert summary["alerts_active"] == 0
    (alert,) = engine.alerts
    assert alert.fired_window == 1 and alert.resolved_window == 5
    assert alert.peak == 9.0


def test_empty_windows_freeze_streaks():
    rule = SloRule(name="r", series="s", op=">=", threshold=5.0, for_windows=2)
    engine = SloEngine([rule])
    # breach, empty, breach: the empty window neither clears nor extends
    # the streak, so the second breach completes for_windows=2 and fires.
    events = feed(engine, "s", [7.0, None, 8.0])
    assert [(e["event"], e["window"]) for e in events] == [("fire", 2)]
    # empty windows also never resolve an active alert
    events = feed(engine, "s", [None, None], start_window=3)
    assert events == []
    assert engine.summary()["alerts_active"] == 1


def test_increasing_op():
    rule = SloRule(name="growth", series="s", op="increasing", for_windows=3)
    engine = SloEngine([rule])
    # First window has no predecessor; then three consecutive increases.
    events = feed(engine, "s", [1.0, 2.0, 3.0, 4.0])
    assert [(e["event"], e["window"]) for e in events] == [("fire", 3)]
    # A flat window clears (resolve_windows=1).
    events = feed(engine, "s", [4.0], start_window=4)
    assert [(e["event"], e["window"]) for e in events] == [("resolve", 4)]


def test_per_label_states_are_independent():
    rule = SloRule(name="r", series="node.deficit", op=">=", threshold=1.0)
    engine = SloEngine([rule])
    events = feed(engine, "node.deficit", [2.0], labels={"node": "a"})
    events += feed(engine, "node.deficit", [0.0], labels={"node": "b"})
    assert [(e["event"], e["labels"]["node"]) for e in events] == [("fire", "a")]
    assert engine.summary()["alerts_active"] == 1


# ---------------------------------------------------------------------------
# HealthMonitor on a live deployment


def run_crash_scenario():
    deployment = build_deployment("d2", 8, seed=11)
    for i in range(40):
        deployment.store.write((i + 1) * 10**14, 8192)
    deployment.stabilize()
    deployment.enable_dynamic_membership(min_nodes=4)
    monitor = deployment.enable_health_monitoring(window=30.0)
    victim = deployment.node_names[0]
    deployment.advance_to(10.0)
    assert deployment.membership.crash(victim)
    deployment.advance_to(600.0)
    rows = monitor.finish()
    return deployment, monitor, rows


def test_monitor_deficit_fires_and_resolves_after_crash():
    deployment, monitor, rows = run_crash_scenario()
    alerts = [r for r in rows if r["type"] == "alert"
              and r["rule"] == "replica-deficit"]
    events = [r["event"] for r in alerts]
    assert "fire" in events and "resolve" in events
    fire = next(r for r in alerts if r["event"] == "fire")
    resolve = next(r for r in alerts if r["event"] == "resolve")
    assert resolve["window"] > fire["window"]
    summary = monitor.summary()
    assert summary["alerts_fired"] >= 1
    assert summary["alerts_active"] == 0
    # the registry counters mirror the engine ledger
    assert deployment.metrics.counter("health.alerts_fired").value == \
        summary["alerts_fired"]


def test_monitor_rows_are_deterministic():
    _, _, first = run_crash_scenario()
    _, _, second = run_crash_scenario()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_churn_cell_repair_gauges_match_committed_export():
    """One storm cell's ``repair.backlog``/``repair.deficit`` windows and
    alerts, byte for byte: the golden file was exported before the deficit
    became a maintained per-key count, so any drift in that count (or in
    when the gauges are sampled) shows as a differing line."""
    from repro.experiments.churn_storm import STORM_LEVELS
    from repro.runner.cells import churn_cell

    row = churn_cell(dict(
        level="storm", users=1, days=0.1, n_nodes=12, seed=42, trial=0,
        correlated_events=1, drain_seconds=3600.0, **STORM_LEVELS["storm"]))
    assert row["repair_requeued"] > 0 and row["repair_retries"] > 0
    gauges = ("repair.backlog", "repair.deficit")
    lines = [json.dumps(r, sort_keys=True) for r in row["health"]["rows"]
             if r.get("name", r.get("series")) in gauges]
    golden = os.path.join(os.path.dirname(__file__), "data",
                          "churn_repair_health.jsonl")
    with open(golden, encoding="utf-8") as handle:
        assert lines == handle.read().splitlines()


def test_observability_snapshot_includes_health():
    deployment, monitor, _rows = run_crash_scenario()
    snapshot = deployment.observability_snapshot()
    assert snapshot["health"]["alerts_fired"] == monitor.summary()["alerts_fired"]


def test_enable_health_monitoring_is_idempotent():
    deployment = build_deployment("d2", 4, seed=3)
    monitor = deployment.enable_health_monitoring(window=60.0)
    assert deployment.enable_health_monitoring(window=15.0) is monitor
    assert monitor.window == 60.0


# ---------------------------------------------------------------------------
# the health CLI


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def test_healthcli_renders_and_requires_cycle(tmp_path, capsys):
    _, _, rows = run_crash_scenario()
    target = tmp_path / "health.jsonl"
    write_jsonl(str(target), rows)

    assert health_main([str(target)]) == 0
    out = capsys.readouterr().out
    assert "alert timeline" in out
    assert "replica-deficit" in out

    assert health_main([str(target), "--require-cycle", "replica-deficit"]) == 0
    assert health_main([str(target), "--require-cycle", "load-imbalance"]) == 1


def test_healthcli_rejects_bad_rows(tmp_path, capsys):
    target = tmp_path / "bad.jsonl"
    target.write_text('{"type": "series", "name": "x"}\nnot json\n')
    assert health_main([str(target)]) == 1
    err = capsys.readouterr().err
    assert "INVALID" in err


def test_healthcli_missing_file(tmp_path, capsys):
    assert health_main([str(tmp_path / "nope.jsonl")]) == 1
