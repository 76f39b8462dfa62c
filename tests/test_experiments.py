"""Tests of the figure table (:data:`repro.experiments.figures.FIGURES`) at tiny scale.

Every entry must run end-to-end and produce rows with the fields its
table prints.  The paper-shape claims (:mod:`repro.experiments.claims`)
are checked at laptop scale by every ``python -m repro`` run; here they
are only evaluated on the tiny rows, so that a renamed column fails
fast.  What is held here is that nothing *moved*: the rows and the
rendered report of every entry, at the CI sizes below, equal the digests
recorded on the commit before the per-figure modules were merged into
the table.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.__main__ import main
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
                  read_cells=((16, 40),), read_base_size=8,
                  read_ops_per_user=2, read_window=16, users=2, days=0.25),
    "accel": dict(n_nodes=16, clients=4, pre_ops=300, post_ops=400,
                  static_capacity=4, scenarios=("hotspot",),
                  modes=("none", "cache+adaptive")),
}

#: Host-time columns of the `scale` / `accel` rows, blanked before hashing.
HOST_COLUMNS = ("wall_seconds", "ops_per_sec", "peak_rss_kb", "rss_growth_kb",
                "rss_curve_kb")

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
EXPERIMENTS = Path(__file__).parent.parent / "EXPERIMENTS.md"


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
        """``list``, the registry and the CI scales name the same entries,
        each with a table and a claim, and every gap gives its reason."""
        assert main(["list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:-1]]
        assert listed == list(FIGURES) == list(CI_SCALE)
        assert [name for name, figure in FIGURES.items() if not figure.in_all] == [
            "scale", "accel"
        ]
        for figure in FIGURES.values():
            assert figure.tables and figure.claims
            assert all(claim.gap is None or claim.gap.strip() for claim in figure.claims)

    def test_verdicts_follow_the_claims(self):
        """Each entry's EXPERIMENTS.md heading (an extension's bullet)
        carries ✅ iff every claim of the entry holds, 🟡 iff one is a gap."""
        lines = EXPERIMENTS.read_text().splitlines()
        for name, figure in FIGURES.items():
            label = figure.title.split(":")[0]
            if label == "Extension":
                found = [line for line in lines
                         if line.startswith("* **") and f"`python -m repro {name}`" in line]
            else:
                found = [line for line in lines if re.match(rf"## {re.escape(label)}\b", line)]
            assert len(found) == 1, (name, found)
            verdict = "🟡" if any(claim.gap for claim in figure.claims) else "✅"
            assert {mark for mark in "✅🟡" if mark in found[0]} == {verdict}, found[0]

    @pytest.mark.parametrize("name", list(FIGURES))
    def test_rows_and_report_golden(self, name, tmp_path, monkeypatch):
        """Rows and rendered text at CI size, against digests recorded on
        the parent of the registry PR (one ``run_*`` / ``format_*`` module
        per figure).  Recorded after it, by design: the ``ablations``
        report (five tables with the benches' columns; its *rows* are the
        parent's), and the ``scale`` rows once more when routing cells lost
        ``cold_ops`` (every other field as before).  ``scale`` / ``accel``
        time the host: their host columns are dropped and their text is
        not pinned."""
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
        # Every claim reads these rows' columns: a rename fails here, not
        # in the default-scale CI run.
        assert all(type(claim.holds(rows)) is bool for claim in FIGURES[name].claims)

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
