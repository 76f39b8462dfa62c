"""Tests for the end-to-end performance harness."""

import pytest

from repro.analysis.performance import (
    GroupTiming,
    PerformanceResult,
    compare,
    run_performance,
)
from repro.workloads.harvard import HarvardConfig, generate_harvard


@pytest.fixture(scope="module")
def trace():
    return generate_harvard(HarvardConfig(users=3, days=0.5, seed=4))


@pytest.fixture(scope="module")
def d2_seq(trace):
    return run_performance(trace, "d2", mode="seq", n_nodes=20, seed=1, n_windows=2)


@pytest.fixture(scope="module")
def trad_seq(trace):
    return run_performance(trace, "traditional", mode="seq", n_nodes=20, seed=1,
                           n_windows=2)


class TestRunPerformance:
    def test_produces_timings(self, d2_seq):
        assert d2_seq.group_timings
        assert all(t.completion >= 0 for t in d2_seq.group_timings)

    def test_same_groups_across_systems(self, d2_seq, trad_seq):
        d2_groups = set(d2_seq.timings_by_group())
        trad_groups = set(trad_seq.timings_by_group())
        overlap = d2_groups & trad_groups
        assert len(overlap) >= 0.8 * max(len(d2_groups), len(trad_groups))

    def test_d2_fewer_lookup_messages(self, d2_seq, trad_seq):
        assert d2_seq.lookup_messages < trad_seq.lookup_messages

    def test_d2_lower_miss_rate(self, d2_seq, trad_seq):
        assert d2_seq.mean_miss_rate < trad_seq.mean_miss_rate

    def test_metrics_carry_lookup_gauges(self, d2_seq):
        """Client caches are the deployment's, so its snapshot sees them."""
        gauges = d2_seq.metrics["gauges"]
        counters = d2_seq.metrics["counters"]
        assert gauges["lookup.caches"] == len(d2_seq.per_user_miss_rate) > 0
        assert gauges["lookup.occupancy"] > 0
        assert counters["lookup.hits"] == d2_seq.cache_hits
        assert counters["lookup.misses"] == d2_seq.cache_misses
        assert gauges["lookup.hit_ratio"] == pytest.approx(
            d2_seq.cache_hits / (d2_seq.cache_hits + d2_seq.cache_misses)
        )

    def test_invalid_mode_rejected(self, trace):
        with pytest.raises(ValueError):
            run_performance(trace, "d2", mode="both", n_nodes=10)

    def test_para_not_slower_than_seq_for_d2(self, trace, d2_seq):
        para = run_performance(trace, "d2", mode="para", n_nodes=20, seed=1,
                               n_windows=2)
        seq_total = sum(t.completion for t in d2_seq.group_timings)
        para_total = sum(t.completion for t in para.group_timings)
        assert para_total <= seq_total * 1.05


class TestCompare:
    def r(self, completions, system="x"):
        timings = [
            GroupTiming(user=f"u{i % 2}", start=float(i), fetches=1, completion=c)
            for i, c in enumerate(completions)
        ]
        return PerformanceResult(
            system=system, mode="seq", n_nodes=10, bandwidth_bps=1.0,
            group_timings=timings, lookup_messages=0, lookups=0,
            cache_hits=0, cache_misses=0, per_user_miss_rate={},
        )

    def test_speedup_of_identical_is_one(self):
        report = compare(self.r([1.0, 2.0]), self.r([1.0, 2.0]))
        assert report.overall == pytest.approx(1.0)

    def test_speedup_two_x(self):
        report = compare(self.r([2.0, 4.0]), self.r([1.0, 2.0]))
        assert report.overall == pytest.approx(2.0)

    def test_geometric_mean_not_arithmetic(self):
        # Ratios 4 and 0.25 must cancel geometrically.
        report = compare(self.r([4.0, 1.0]), self.r([1.0, 4.0]))
        assert report.overall == pytest.approx(1.0)

    def test_per_user_breakdown(self):
        report = compare(self.r([2.0, 2.0]), self.r([1.0, 4.0]))
        assert set(report.per_user) == {"u0", "u1"}
        assert report.per_user["u0"] == pytest.approx(2.0)
        assert report.per_user["u1"] == pytest.approx(0.5)
        assert report.fraction_above_one == pytest.approx(0.5)

    def test_pairs_recorded(self):
        report = compare(self.r([2.0]), self.r([1.0]))
        assert report.pairs == [(2.0, 1.0)]

    def test_unmatched_groups_skipped(self):
        base = self.r([2.0, 3.0])
        fast = self.r([1.0])
        report = compare(base, fast)
        assert len(report.pairs) == 1


class TestEndToEndShape:
    def test_d2_seq_speedup_at_least_parity(self, d2_seq, trad_seq):
        """At even this tiny scale D2 should not lose in seq mode."""
        report = compare(trad_seq, d2_seq)
        assert report.overall > 0.9
