"""Tests of the figure table (:data:`repro.experiments.figures.FIGURES`) at tiny scale.

Every entry must run end-to-end and produce rows with the fields its
table prints; the paper-shape assertions live in
``benchmarks/bench_figures.py``, which runs at larger scale.  What is
held here instead is that nothing *moved*: the rows and the rendered
report of every entry, at the CI sizes below, equal the digests recorded
on the commit before the per-figure modules were merged into the table.
"""

import hashlib
import json
from pathlib import Path

import pytest

from benchmarks.bench_figures import SHAPE_CHECKS
from repro.__main__ import main
from repro.experiments import balance, performance
from repro.experiments.common import clear_cache, format_table
from repro.experiments.figures import FIGURES
from repro.experiments.scale_matrix import BENCH_ENV

TINY = dict(users=3, days=0.5, seed=21)
AVAIL = dict(users=3, days=0.5, seed=21, trials=1, n_nodes=16, inters=(5.0, 60.0))
AVAIL_ONE_INTER = {k: v for k, v in AVAIL.items() if k != "inters"}
PERF = dict(
    users=3, days=0.5, seed=21,
    node_sizes=(12, 24), bandwidths_kbps=(1500.0,), n_windows=2,
)
BALANCE = dict(n_nodes=12, days=1.0, seed=21)
HARVARD_BALANCE = dict(users=3, **BALANCE)
ABLATION = dict(n_nodes=10, files=60, file_size=32_000, seed=3)

#: registry name -> scale keywords (one dict for every table of the entry,
#: or one dict per table).
CI_SCALE = {
    "table1": TINY, "fig3": TINY,
    "fig7": AVAIL, "fig8": AVAIL_ONE_INTER, "table2": AVAIL,
    "fig9": PERF, "fig10": PERF, "fig11": PERF, "fig12": PERF, "fig13": PERF,
    "fig14": PERF, "fig15": PERF,
    "table3": [HARVARD_BALANCE, dict(users=2, days=0.5, n_nodes=12, seed=21)],
    "churn": dict(levels=("storm",), correlated=(1,), users=1, days=0.1,
                  n_nodes=12, seed=42),
    "fig16": HARVARD_BALANCE, "fig17": BALANCE, "table4": HARVARD_BALANCE,
    "hybrid": dict(n_nodes=24, victim_files=8, big_file_blocks=16, seed=13),
    "hotspot": dict(n_nodes=16, n_files=8, n_clients=10, requests=800, seed=13),
    "erasure": dict(n_nodes=20, users=2, days=0.5, seed=13),
    "ablations": [
        dict(churn_rounds=1, **ABLATION),
        dict(thresholds=(2.5, 6.0), **ABLATION),
        dict(ttls=(30.0, 4500.0), n_nodes=16, accesses=800, seed=3),
        dict(replica_counts=(2, 4), n_nodes=20, users=2, days=0.5, seed=3),
        ABLATION,
    ],
    "scale": dict(routing_nodes=(64,), routing_ops=400, routing_batch=128,
                  routing_cold_ops=50, read_cells=((16, 40),), read_base_size=8,
                  read_ops_per_user=2, read_window=16, users=2, days=0.25),
    "accel": dict(n_nodes=16, clients=4, pre_ops=300, post_ops=400,
                  static_capacity=4, scenarios=("hotspot",),
                  modes=("none", "cache+adaptive")),
}

#: Host-time columns of the `scale` / `accel` rows, blanked before hashing.
HOST_COLUMNS = ("wall_seconds", "ops_per_sec", "peak_rss_kb", "rss_growth_kb",
                "rss_curve_kb", "cold_wall_seconds", "speedup_vs_cold")

# What a grid-backed entry is refused for: a grid that lacks a cell its
# projection reads, and a grid with an empty axis.
SMALL_PERF = dict(users=2, days=0.25, seed=5, node_sizes=(12,), n_windows=1)
MISSING_CELL = {
    **{name: dict(SMALL_PERF, bandwidths_kbps=(384.0,), systems=("d2", "traditional"))
       for name in ("fig9", "fig12", "fig13", "fig14")},
    "fig15": dict(SMALL_PERF, bandwidths_kbps=(384.0,)),
    "fig10": dict(SMALL_PERF, bandwidths_kbps=(1500.0,), systems=("d2",)),
    "fig11": dict(SMALL_PERF, bandwidths_kbps=(1500.0,), systems=("d2",)),
    "fig8": dict(AVAIL, inters=(60.0,)),
}
EMPTY_AXIS = {
    **{name: dict(PERF, node_sizes=())
       for name in ("fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15")},
    "fig7": dict(AVAIL, systems=()),
    "fig8": dict(AVAIL_ONE_INTER, trials=0),
    "table2": dict(AVAIL, inters=()),
    "churn": dict(levels=()),
    "fig16": dict(HARVARD_BALANCE, systems=()),
    "fig17": dict(BALANCE, systems=()),
    "accel": dict(modes=()),
}

GOLDEN = Path(__file__).parent / "data" / "figure_rows.json"


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def tiny_rows(name):
    """Each table's rows of entry *name* at its CI scale."""
    figure, scale = FIGURES[name], CI_SCALE[name]
    if isinstance(scale, dict):
        return figure.rows(**scale)
    return [table.rows(**kwargs) for table, kwargs in zip(figure.tables, scale)]


def tiny_report(name, rows=None):
    """The text ``python -m repro <name>`` would print at the entry's CI scale."""
    scale = CI_SCALE[name]
    return FIGURES[name].render(
        tiny_rows(name) if rows is None else rows,
        **(scale if isinstance(scale, dict) else {}),
    )


def _digest(lines):
    return {"count": len(lines),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


class TestRegistry:
    def test_one_table_of_names(self, capsys):
        """``list``, the registry, the CI scales and the bench's shape
        checks name the same entries."""
        assert main(["list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:-1]]
        assert listed == list(FIGURES) == list(CI_SCALE)
        assert set(SHAPE_CHECKS) == set(FIGURES)
        assert [name for name, figure in FIGURES.items() if not figure.in_all] == [
            "scale", "accel"
        ]
        for figure in FIGURES.values():
            assert figure.shape.strip() and figure.tables

    @pytest.mark.parametrize("name", list(FIGURES))
    def test_rows_and_report_golden(self, name, tmp_path, monkeypatch):
        """Rows and rendered text at CI size, against digests recorded on
        the parent of the registry PR (one ``run_*`` / ``format_*`` module
        per figure).  Recorded after it, by design: the ``ablations``
        report (five tables with the benches' columns; its *rows* are the
        parent's).  ``scale`` / ``accel`` time the host: their host
        columns are dropped and their text is not pinned."""
        monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
        monkeypatch.setenv(BENCH_ENV, str(tmp_path / "BENCH_scale.json"))
        rows = tiny_rows(name)
        got = {"tables": [
            _digest([
                json.dumps({k: v for k, v in row.items() if k not in HOST_COLUMNS},
                           sort_keys=True)
                for row in table_rows
            ])
            for table_rows in rows
        ]}
        got["report"] = None
        if FIGURES[name].in_all:
            got["report"] = _digest(tiny_report(name, rows).splitlines())
        assert got == json.loads(GOLDEN.read_text())[name]

    @pytest.mark.parametrize("name", [n for n in FIGURES if n in EMPTY_AXIS])
    def test_projections_fail_loudly(self, name, monkeypatch):
        """No silently empty table: a projection names the cell it could
        not find, and an empty axis is refused before the runner is
        called."""
        figure = FIGURES[name]
        if name in MISSING_CELL:
            with pytest.raises(ValueError, match=r"has no (cell|inter)"):
                figure.rows(**MISSING_CELL[name])

        def refuse(*args, **kwargs):
            raise AssertionError("run_cells reached with an empty axis")

        monkeypatch.setattr("repro.experiments.common.run_cells", refuse)
        with pytest.raises(ValueError, match="axis '.*' is empty"):
            figure.rows(**EMPTY_AXIS[name])


class TestFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
        text = format_table(rows, ["a", "b"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_empty(self):
        assert "(no rows)" in format_table([], ["a"], title="T")


class TestTable1:
    def test_rows(self):
        (rows,) = tiny_rows("table1")
        assert len(rows) == 3
        assert {row["workload"] for row in rows} == {
            "hp-synth", "harvard-synth", "web-synth"
        }
        assert all(row["accesses"] > 0 for row in rows)
        assert "Table 1" in tiny_report("table1")


class TestFig3:
    def test_rows_and_shape(self):
        (rows,) = tiny_rows("fig3")
        assert len(rows) == 9  # 3 workloads x 3 scenarios
        by_key = {(r["workload"], r["scenario"]): r for r in rows}
        for workload in ("hp-synth", "harvard-synth", "web-synth"):
            trad = by_key[(workload, "traditional")]
            ordered = by_key[(workload, "ordered")]
            bound = by_key[(workload, "lower-bound")]
            assert trad["normalized"] == 1.0
            assert ordered["normalized"] < 1.0
            assert bound["normalized"] <= ordered["normalized"] + 1e-9
        assert "Figure 3" in tiny_report("fig3")


class TestAvailabilityDrivers:
    def test_fig7(self):
        (rows,) = tiny_rows("fig7")
        assert len(rows) == 6  # 2 inters x 3 systems
        assert all(0.0 <= r["mean_unavailability"] <= 1.0 for r in rows)
        assert "Figure 7" in tiny_report("fig7")

    def test_fig8(self):
        (rows,) = FIGURES["fig8"].rows(inter=5.0, **AVAIL_ONE_INTER)
        assert any(r["rank"] == "affected-users" for r in rows)
        assert "Figure 8" in tiny_report("fig8")

    def test_table2(self):
        (rows,) = tiny_rows("table2")
        assert len(rows) == 2
        for row in rows:
            assert row["nodes_d2"] <= row["nodes_traditional"]
            assert row["blocks_per_task"] >= row["files_per_task"]
        assert "Table 2" in tiny_report("table2")


class TestPerformanceDrivers:
    def test_fig9(self):
        (rows,) = tiny_rows("fig9")
        assert len(rows) == 4  # 2 modes x 2 sizes
        for row in rows:
            assert row["msgs_per_node_d2"] <= row["msgs_per_node_traditional"]
        assert "Figure 9" in tiny_report("fig9")

    def test_fig10_and_11(self):
        (rows,) = tiny_rows("fig10")
        assert all(row["speedup"] > 0 for row in rows)
        assert "Figure 10" in tiny_report("fig10")
        (rows11,) = tiny_rows("fig11")
        assert len(rows11) == len(rows)

    def test_fig12(self):
        (rows,) = tiny_rows("fig12")
        assert rows
        per_mode = [r for r in rows if r["mode"] == "seq"]
        speeds = [r["speedup"] for r in per_mode]
        assert speeds == sorted(speeds, reverse=True)
        assert "Figure 12" in tiny_report("fig12")

    def test_fig13(self):
        (rows,) = tiny_rows("fig13")
        for row in rows:
            assert 0.0 <= row["miss_rate_d2"] <= 1.0
            assert row["miss_rate_d2"] <= row["miss_rate_traditional"]
        assert "Figure 13" in tiny_report("fig13")

    def test_fig14_and_15(self):
        (rows,) = tiny_rows("fig14")
        for row in rows:
            assert row["faster_in_d2"] <= row["groups"]
        assert "Figure 14" in tiny_report("fig14")
        points = performance.scatter_points(mode="seq", **PERF)
        assert all(p["baseline_s"] >= 0 and p["d2_s"] >= 0 for p in points)
        assert tiny_rows("fig15")[0]


class TestBalanceDrivers:
    def test_table3(self):
        rows = balance.churn_ratio_rows(**HARVARD_BALANCE)
        workloads = {row["workload"] for row in rows}
        assert workloads == {"Harvard", "Webcache"}
        assert "Table 3" in tiny_report("table3")

    def test_fig16(self):
        (rows,) = tiny_rows("fig16")
        assert {r["system"] for r in rows} == {
            "d2", "traditional", "traditional-file", "traditional+merc"
        }
        assert "Figure 16" in tiny_report("fig16")

    def test_fig17(self):
        (rows,) = tiny_rows("fig17")
        assert {r["system"] for r in rows} == {"d2", "traditional"}
        assert "Figure 17" in tiny_report("fig17")

    def test_table4(self):
        (rows,) = tiny_rows("table4")
        totals = [row for row in rows if row["day"] == "total L/W"]
        assert {row["workload"] for row in totals} == {"Harvard", "Webcache"}
        assert "Table 4" in tiny_report("table4")


class TestDriverPlots:
    """ASCII plot variants of the time-series/scatter drivers."""

    def test_fig16_plot(self):
        chart = FIGURES["fig16"].plot(**HARVARD_BALANCE)
        assert "Figure 16" in chart
        assert "o=d2" in chart

    def test_fig17_plot(self):
        chart = FIGURES["fig17"].plot(**BALANCE)
        assert "Figure 17" in chart
        assert "days" in chart

    def test_fig14_plot(self):
        chart = FIGURES["fig14"].plot(
            mode="seq", users=3, days=0.5, seed=21,
            node_sizes=(12,), bandwidths_kbps=(1500.0,), n_windows=2,
        )
        assert "Figure 14" in chart
        assert "diagonal" in chart
