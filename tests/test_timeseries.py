"""Tests for repro.obs.timeseries: window geometry, counter deltas,
empty-window materialization, deterministic rejection, and bounded
export buffers."""

from __future__ import annotations

import pytest

from repro.obs.timeseries import COUNTER, TimeSeriesBank, TimeSeriesError


def busy(rows):
    return [r for r in rows if r["count"]]


def empty(rows):
    return [r for r in rows if not r["count"]]


# ---------------------------------------------------------------------------
# window geometry: half-open (start, end] windows


def test_boundary_sample_lands_in_closing_window():
    bank = TimeSeriesBank(width=10.0)
    series = bank.series("g")
    # t=10.0 is the boundary that *closes* window 0 (0, 10] — the sample
    # belongs to window 0, not window 1.
    assert series.sample(5.0, 1.0)
    assert series.sample(10.0, 2.0)
    series.advance(20.0)
    rows = bank.drain()
    # advance(20) also materializes (10, 20] as an explicit empty window —
    # the timeline stays contiguous through `now`.
    assert [r["window"] for r in rows] == [0, 1]
    assert rows[0]["start"] == 0.0 and rows[0]["end"] == 10.0
    assert rows[0]["count"] == 2
    assert rows[0]["value"] == 2.0  # gauge default agg = last
    assert rows[1]["count"] == 0


def test_sample_at_epoch_is_pure_baseline():
    bank = TimeSeriesBank(width=10.0)
    series = bank.series("c", kind=COUNTER)
    assert series.sample(0.0, 100.0)   # baseline only, belongs to no window
    assert series.sample(10.0, 130.0)  # window 0 closes with delta 30
    series.advance(30.0)
    assert [(r["window"], r["value"]) for r in busy(bank.drain())] == [(0, 30.0)]


def test_gauge_aggregations():
    for agg, expected in (("last", 3.0), ("max", 9.0)):
        bank = TimeSeriesBank(width=10.0)
        series = bank.series("g", agg=agg)
        for t, v in ((1.0, 9.0), (2.0, 1.0), (3.0, 3.0)):
            series.sample(t, v)
        series.advance(10.0)
        (row,) = bank.drain()
        assert row["value"] == expected, agg


# ---------------------------------------------------------------------------
# counter semantics


def test_counter_deltas_across_windows():
    bank = TimeSeriesBank(width=10.0)
    series = bank.series("c", kind=COUNTER)
    series.sample(1.0, 5.0)     # first window: in-window growth 20 - 5
    series.sample(9.0, 20.0)
    series.sample(15.0, 50.0)   # second window: delta vs last cumulative
    series.advance(30.0)
    rows = busy(bank.drain())
    assert [(r["window"], r["value"]) for r in rows] == [(0, 15.0), (1, 30.0)]


def test_counter_delta_carries_over_empty_windows():
    bank = TimeSeriesBank(width=10.0)
    series = bank.series("c", kind=COUNTER)
    series.sample(1.0, 4.0)
    series.sample(5.0, 10.0)
    series.sample(45.0, 25.0)   # three empty windows in between
    series.advance(60.0)
    rows = bank.drain()
    empties = empty(rows)
    # windows 1-3 were skipped between samples; 5 trails from advance(60).
    assert [r["window"] for r in empties] == [1, 2, 3, 5]
    assert all(r["value"] == 0.0 for r in empties)  # counters: zero growth
    assert [(r["window"], r["value"]) for r in busy(rows)] == [
        (0, 6.0), (4, 15.0),
    ]


# ---------------------------------------------------------------------------
# empty-window materialization is capped


def test_empty_window_gap_is_capped():
    bank = TimeSeriesBank(width=1.0, max_empty_gap=4)
    series = bank.series("g")
    series.sample(0.5, 1.0)
    series.sample(1000.5, 2.0)  # ~999 empty windows: only 4 materialize
    series.advance(2000.0)      # ~999 more trailing empties: 4 again
    rows = bank.drain()
    assert len(empty(rows)) == 8
    assert series.skipped_windows > 1900
    assert bank.stats()["skipped_windows"] == series.skipped_windows


def test_empty_gauge_windows_have_null_value():
    bank = TimeSeriesBank(width=10.0)
    series = bank.series("g")
    series.sample(5.0, 1.0)
    series.sample(25.0, 2.0)
    series.advance(40.0)
    gaps = empty(bank.drain())
    assert [g["window"] for g in gaps] == [1, 3]
    assert all(g["value"] is None for g in gaps)


# ---------------------------------------------------------------------------
# rejection is deterministic, never reordering


def test_out_of_order_and_closed_window_samples_rejected():
    bank = TimeSeriesBank(width=10.0)
    series = bank.series("g")
    assert series.sample(5.0, 1.0)
    assert not series.sample(4.0, 2.0)      # backwards time
    assert not series.sample(-1.0, 2.0)     # before the epoch
    series.advance(20.0)                     # closes window 0
    assert not series.sample(8.0, 3.0)      # late sample into a closed window
    assert series.rejected == 3
    (row,) = busy(bank.drain())
    assert row["count"] == 1 and row["value"] == 1.0


# ---------------------------------------------------------------------------
# construction and bank behavior


def test_invalid_construction():
    with pytest.raises(TimeSeriesError):
        TimeSeriesBank(width=0.0)
    bank = TimeSeriesBank(width=10.0)
    with pytest.raises(TimeSeriesError):
        bank.series("x", kind="weird")
    with pytest.raises(TimeSeriesError):
        bank.series("x", agg="median")


def test_bank_get_or_create_and_mismatch():
    bank = TimeSeriesBank(width=10.0)
    series = bank.series("node.load", agg="max", node="n01")
    assert bank.series("node.load", agg="max", node="n01") is series
    assert bank.series("node.load", agg="max", node="n02") is not series
    with pytest.raises(TimeSeriesError):
        bank.series("node.load", kind=COUNTER, node="n01")
    with pytest.raises(TimeSeriesError):
        bank.series("node.load", agg="last", node="n01")


def test_bank_rows_carry_labels_and_stats():
    bank = TimeSeriesBank(width=10.0)
    bank.sample("node.load", 5.0, 3.0, agg="max", node="n01")
    bank.sample("ring.nodes", 5.0, 16.0)
    bank.advance(20.0)
    rows = busy(bank.drain())
    by_name = {(r["name"], tuple(sorted(r["labels"].items()))): r for r in rows}
    assert by_name[("node.load", (("node", "n01"),))]["value"] == 3.0
    assert by_name[("ring.nodes", ())]["value"] == 16.0
    stats = bank.stats()
    assert stats["series"] == 2
    assert stats["samples"] == 2
    assert stats["rejected"] == 0


def test_bank_retention_drops_oldest_and_counts():
    bank = TimeSeriesBank(width=1.0, retention=4)
    for window in range(8):
        bank.sample("g", window + 0.5, float(window))
    bank.advance(8.0)
    rows = bank.drain()
    assert len(rows) == 4
    assert bank.dropped_rows == 4
    assert rows[-1]["window"] == 7  # the newest rows survive


# ---------------------------------------------------------------------------
# drain composition: incremental drains == one-shot export


def test_drain_composition_matches_one_shot():
    def feed(bank, collect=None):
        rows = []
        for step in range(50):
            t = float(step)
            bank.sample("g", t + 0.25, float(step % 7), agg="max")
            bank.sample("c", t + 0.5, float(step * 3), kind=COUNTER)
            bank.advance(t + 1.0)
            if collect:
                rows.extend(bank.drain())
        bank.flush()
        if collect:
            rows.extend(bank.drain())
        return rows

    incremental = TimeSeriesBank(width=5.0)
    chunks = feed(incremental, collect=True)

    oneshot = TimeSeriesBank(width=5.0)
    feed(oneshot)
    assert chunks == oneshot.drain()


def test_flush_emits_partial_window():
    bank = TimeSeriesBank(width=10.0)
    series = bank.series("g")
    series.sample(3.0, 7.0)
    assert bank.drain() == []  # window still open
    bank.flush()
    (row,) = bank.drain()
    assert row["window"] == 0 and row["value"] == 7.0
    # flush() is terminal for that window: a re-flush adds nothing.
    bank.flush()
    assert bank.drain() == []
