"""Tests for the parallel grid runner, the process memo in front of it, and its knobs."""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from repro.experiments import common
from repro.experiments.churn_storm import STORM_LEVELS
from repro.experiments.performance import emit_performance_metrics, performance_matrix
from repro.obs.__main__ import main as obs_main
from repro.obs.report import METRICS_DIR_ENV
from repro.runner import (
    JOBS_ENV,
    JobsError,
    cell_kind,
    execute_cell,
    last_stats,
    resolve_jobs,
    run_cells,
)

# A 2-cell performance grid small enough for tests but large enough to
# exercise real simulation (trace replay, metrics snapshots, pickling).
TINY_GRID = dict(
    systems=("d2",),
    modes=("seq", "para"),
    node_sizes=(12,),
    bandwidths_kbps=(1500.0,),
    users=2,
    days=0.25,
    n_windows=1,
    seed=5,
)

TINY_CELL = {
    "measure": "performance",
    "system": "d2",
    "mode": "seq",
    "n_nodes": 12,
    "bandwidth_kbps": 1500.0,
    "users": 2,
    "days": 0.25,
    "n_windows": 1,
    "scale_with_size": True,
    "base_size": 12,
    "seed": 5,
}


class FakeResult:
    """Picklable stand-in for a run result carrying a metrics snapshot."""

    def __init__(self, value, events=0):
        self.value = value
        self.metrics = {"counters": {"sim.events_fired": events}, "gauges": {}}

    def __eq__(self, other):
        return isinstance(other, FakeResult) and self.value == other.value


@cell_kind("test-echo")
def _echo_cell(params):
    return FakeResult(params["x"] * 2, events=params.get("events", 0))


@pytest.fixture(autouse=True)
def clean_runner_env(monkeypatch):
    """Isolate each test from the process memo and the runner's env knob."""
    common.clear_cache()
    monkeypatch.delenv(JOBS_ENV, raising=False)
    yield
    common.clear_cache()


@cell_kind("test-echo-other")
def _other_echo_cell(params):
    return FakeResult(-params["x"])


class TestCacheKey:
    """The process memo's key: the kind and the whole bundle, in any order."""

    def test_order_independent(self):
        common.run_grid("test-echo", [{"x": 1, "events": 2}])
        common.run_grid("test-echo", [{"events": 2, "x": 1}])
        assert last_stats("test-echo").cells_cached == 1

    def test_sensitive_to_params_and_kind(self):
        common.run_grid("test-echo", [{"x": 1}])
        common.run_grid("test-echo", [{"x": 2}])
        assert last_stats("test-echo").cells_computed == 1
        (value,) = common.run_grid("test-echo-other", [{"x": 1}])
        assert last_stats("test-echo-other").cells_computed == 1
        assert value.value == -1

    def test_stable_across_calls(self):
        (first,) = common.run_grid("test-echo", [dict(TINY_CELL, x=1)])
        (second,) = common.run_grid("test-echo", [dict(TINY_CELL, x=1)])
        assert second is first


class TestResolveJobs:
    def test_default_serial(self):
        assert resolve_jobs() == 1
        assert resolve_jobs(None) == 1

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "4")
        assert resolve_jobs() == 4

    def test_env_garbage_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(JobsError, match="'many'"):
            resolve_jobs()

    def test_explicit_non_integer_raises(self):
        with pytest.raises(JobsError, match="2.5"):
            resolve_jobs(2.5)

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert resolve_jobs(2) == 2

    def test_negative_raises(self, monkeypatch):
        with pytest.raises(JobsError, match="-3"):
            resolve_jobs(-3)
        monkeypatch.setenv(JOBS_ENV, "-2")
        with pytest.raises(JobsError, match=r"\$REPRO_JOBS.*-2"):
            resolve_jobs()


class TestRunCells:
    def test_results_in_cell_order(self):
        cells = [{"x": i} for i in range(5)]
        values = run_cells("test-echo", cells)
        assert [v.value for v in values] == [0, 2, 4, 6, 8]

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            execute_cell("no-such-kind", {})

    def test_stats_without_cache(self):
        run_cells("test-echo", [{"x": 1}, {"x": 2}])
        stats = last_stats("test-echo")
        assert stats.cells_total == 2
        assert stats.cells_computed == 2
        assert stats.cells_cached == 0

    def test_cache_hit_and_miss(self):
        cells = [{"x": 1, "events": 7}, {"x": 2, "events": 9}]
        first = common.run_grid("test-echo", cells)
        s1 = last_stats("test-echo")
        assert (s1.cells_computed, s1.cells_cached) == (2, 0)
        assert s1.events_fired == 16  # fresh work is counted...
        second = common.run_grid("test-echo", cells)
        s2 = last_stats("test-echo")
        assert (s2.cells_computed, s2.cells_cached) == (0, 2)
        assert s2.events_fired == 0  # ...memoised work is not
        assert first == second

    def test_partial_cache_mixes_sources(self):
        common.run_grid("test-echo", [{"x": 1}])
        values = common.run_grid("test-echo", [{"x": 1}, {"x": 2}])
        stats = last_stats("test-echo")
        assert (stats.cells_cached, stats.cells_computed) == (1, 1)
        assert [v.value for v in values] == [2, 4]

    def test_stats_report_emitted(self, tmp_path):
        run_cells(
            "test-echo",
            [{"x": 1, "events": 5}],
            metrics_name="runner_echo",
            metrics_dir=str(tmp_path),
        )
        with open(tmp_path / "runner_echo.json") as handle:
            report = json.load(handle)
        counters = report["runs"][0]["counters"]
        assert counters["runner.cells_total"] == 1
        assert counters["runner.cells_computed"] == 1
        assert counters["sim.events_fired"] == 5


class TestParallelEquivalence:
    def test_parallel_matches_serial(self, tmp_path):
        serial = performance_matrix(**TINY_GRID)
        common.clear_cache()
        parallel = performance_matrix(**TINY_GRID, jobs=2)
        assert last_stats("harvard").jobs == 2
        assert sorted(serial) == sorted(parallel)
        for key in serial:
            assert serial[key] == parallel[key], key
        # The emitted figure report must match byte for byte as well.
        serial_path = emit_performance_metrics(
            "eq_serial", serial, {}, metrics_dir=str(tmp_path)
        )
        parallel_path = emit_performance_metrics(
            "eq_parallel", parallel, {}, metrics_dir=str(tmp_path)
        )
        with open(serial_path) as handle:
            serial_report = json.load(handle)
        with open(parallel_path) as handle:
            parallel_report = json.load(handle)
        serial_report["name"] = parallel_report["name"] = "normalized"
        assert serial_report == parallel_report

    def test_second_run_does_zero_simulation_work(self):
        performance_matrix(**TINY_GRID)
        first = last_stats("harvard")
        assert first.cells_computed == 2
        assert first.events_fired > 0
        performance_matrix(**TINY_GRID)  # the process memo serves it
        second = last_stats("harvard")
        assert (second.cells_cached, second.cells_computed) == (2, 0)
        assert second.events_fired == 0

    def test_memoised_grid_reports_its_own_call(self, tmp_path, monkeypatch):
        """A grid the process memo serves whole still reaches the runner:
        ``last_stats`` and the runner report describe that call."""
        monkeypatch.setenv("REPRO_METRICS_DIR", str(tmp_path))
        performance_matrix(**TINY_GRID)
        assert last_stats("harvard").cells_computed == 2
        performance_matrix(**TINY_GRID)
        stats = last_stats("harvard")
        assert (stats.cells_total, stats.cells_cached, stats.cells_computed) == (2, 2, 0)
        assert stats.events_fired == 0
        with open(tmp_path / "runner_performance.json") as handle:
            counters = json.load(handle)["runs"][0]["counters"]
        assert (counters["runner.cells_cached"], counters["runner.cells_computed"]) == (2, 0)


class TestCliJobs:
    def test_jobs_flag_sets_env(self, capsys):
        from repro.__main__ import main

        assert main(["--jobs", "3", "list"]) == 0
        assert os.environ[JOBS_ENV] == "3"
        os.environ.pop(JOBS_ENV, None)

    def test_negative_jobs_rejected(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["--jobs", "-1", "list"])

    def test_jobs_default_leaves_env_alone(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        assert JOBS_ENV not in os.environ


class TestEachCellOnce:
    def test_shared_cells_execute_once(self, monkeypatch):
        """Figures 7, 8, 16, 17 and Tables 2, 3, 4 at tiny scale in one
        process run every distinct ``(kind, sorted bundle)`` exactly once:
        Figure 8 and Table 2 project Figure 7's replays, and the ``d2``
        cells of Tables 3 and 4 are cells of Figures 16 and 17.  Two
        trials, so a key that ignored ``trial`` would run fewer cells."""
        from repro.experiments.figures import FIGURES
        from repro.runner import executor

        executed = []
        execute = executor.execute_cell

        def counting(kind, params):
            executed.append((kind, tuple(sorted(params.items()))))
            return execute(kind, params)

        monkeypatch.setattr(executor, "execute_cell", counting)
        avail = dict(users=2, days=0.25, seed=21, trials=2, n_nodes=12)
        balance = dict(n_nodes=12, days=0.25, seed=21)
        scales = {
            "fig7": dict(avail, inters=(5.0, 60.0)), "fig8": avail, "table2": avail,
            "table3": dict(users=2, **balance), "fig16": dict(users=2, **balance),
            "fig17": balance, "table4": dict(users=2, **balance),
        }
        for name, scale in scales.items():
            FIGURES[name].rows(**scale)
        assert len(executed) == len(set(executed))
        kinds = [kind for kind, _ in executed]
        # 2 trials x 3 systems, 4 Harvard balance systems, the dynamic ring.
        assert kinds.count("harvard") == 6 + 4 + 1
        assert kinds.count("webcache-balance") == 2


class TestMemoKnobs:
    def test_fifo_eviction(self):
        calls = []

        def make(key):
            return common.cached(("memo-test", key), lambda: calls.append(key))

        for key in range(common.MEMO_MAX + 2):
            make(key)
        assert len(common._CACHE) == common.MEMO_MAX  # oldest two evicted
        make(0)  # was evicted -> recomputed
        assert calls == [*range(common.MEMO_MAX + 2), 0]
        make(common.MEMO_MAX + 1)  # still resident -> memo hit
        assert calls == [*range(common.MEMO_MAX + 2), 0]


@cell_kind("test-health-row")
def _health_row_cell(params):
    """A churn-shaped result: a plain dict whose ``health`` key carries
    the monitor export (rows + summary)."""
    return {
        "level": params["level"],
        "health": {
            "window": 900.0,
            "summary": {
                "alerts_fired": params["fired"],
                "alerts_resolved": params["fired"],
                "alerts_active": 0,
                "by_severity": {"critical": params["fired"]},
            },
            "rows": [
                {"type": "series", "name": "ring.nodes", "kind": "gauge",
                 "labels": {}, "window": 0, "start": 0.0, "end": 900.0,
                 "count": 1, "value": 8},
            ],
        },
    }


class TestHealthExport:
    """Dict-shaped cell rows must surface their ``health`` payload.

    Regression: ``_iter_results`` flattens mappings into values, which
    strips the ``health`` key off churn-style dict rows — the runner
    then exported no health files and merged no alert counters.
    """

    def test_dict_rows_export_health_files_and_counters(
        self, tmp_path, monkeypatch
    ):
        metrics_dir = tmp_path / "metrics"
        monkeypatch.setenv(METRICS_DIR_ENV, str(metrics_dir))
        cells = [
            {"level": "calm", "fired": 1},
            {"level": "storm", "fired": 2},
        ]
        run_cells("test-health-row", cells, jobs=1, metrics_name="runner_hx")

        files = sorted(os.listdir(metrics_dir))
        assert files == [
            "runner_hx.health0.jsonl", "runner_hx.health1.jsonl",
            "runner_hx.json",
        ]
        with open(metrics_dir / "runner_hx.json") as fh:
            report = json.load(fh)
        assert report["params"]["health"] == [
            "runner_hx.health0.jsonl", "runner_hx.health1.jsonl",
        ]
        counters = report["runs"][0]["counters"]
        assert counters["health.alerts_fired"] == 3
        assert counters["health.alerts_fired.critical"] == 3
        assert counters["health.alerts_resolved"] == 3
        with open(metrics_dir / "runner_hx.health1.jsonl") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows and rows[0]["name"] == "ring.nodes"


# ----------------------------------------------------------------------
# golden: every observability artefact of one performance and one churn cell

GOLDEN_ARTIFACTS = Path(__file__).parent / "data" / "obs_artifacts.json"

TINY_CHURN_CELL = dict(
    measure="churn", level="storm", users=1, days=0.1, n_nodes=12, seed=42, trial=0,
    correlated_events=1, drain_seconds=3600.0, **STORM_LEVELS["storm"],
)


def obs_artifacts(directory):
    """``{artefact: {"count", "sha256"}}`` for two tiny cells run into *directory*.

    The runner reports (``runner.wall_seconds``, host time, blanked), the
    span and health JSONL files as written, the cells' own snapshots
    (counters, gauges, histograms, event counts), and what ``python -m
    repro.obs trace`` / ``health --windows`` print for those files.
    """
    directory = str(directory)
    cells = {"performance": TINY_CELL, "churn": TINY_CHURN_CELL}
    blobs = {}
    for kind, cell in cells.items():
        (result,) = run_cells(
            "harvard", [cell], jobs=1,
            metrics_name=f"runner_{kind}", metrics_dir=directory,
        )
        snapshot = getattr(result, "metrics", None)
        if snapshot is None:  # a churn row is a plain dict: all of it but the rows
            snapshot = {k: v for k, v in result.items() if k != "health"}
        blobs[f"{kind} cell snapshot"] = [json.dumps(snapshot, sort_keys=True)]
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            if name.endswith(".jsonl"):
                blobs[name] = handle.read().splitlines()
            else:
                report = json.load(handle)
                for run in report["runs"]:
                    run["gauges"]["runner.wall_seconds"] = 0.0
                blobs[name] = [json.dumps(run, sort_keys=True) for run in report["runs"]]
                blobs[name].append(json.dumps(report["params"], sort_keys=True))
    for argv in (["trace", "runner_performance.trace0.jsonl"],
                 ["health", "--windows", "runner_churn.health0.jsonl"]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = obs_main(argv[:-1] + [os.path.join(directory, argv[-1])])
        assert status == 0
        text = stdout.getvalue().replace(directory + os.sep, "")
        blobs["python -m repro.obs " + " ".join(argv)] = text.splitlines()
    return {
        name: {
            "count": len(lines),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        }
        for name, lines in blobs.items()
    }


def test_obs_artifacts_golden(tmp_path, monkeypatch):
    """Pins reports, trace and health files and the CLI text, byte for byte.

    ``tests/data/obs_artifacts.json`` was exported by running
    :func:`obs_artifacts` with ``PYTHONPATH`` on the ``src`` of the commit
    before events became counts (PR 17: payload-carrying events, bubbling
    span finishes, three JSONL line writers, six walks over the results).
    Re-recorded twice since, for the two runner reports only: when the
    ``performance`` and ``churn`` kinds became measurements of one
    ``harvard`` kind (their ``kind`` label is all that changed), and when
    the on-disk run cache went (their ``params`` lost ``cache_dir``; the
    parent commit with that one key dropped exports the same bytes).
    """
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", "1.0")
    assert obs_artifacts(tmp_path) == json.loads(GOLDEN_ARTIFACTS.read_text())
