"""Tests for the long-term load-balance experiments."""

import pytest

from repro.analysis.balance import run_harvard_balance, run_webcache_balance
from repro.analysis.harness import harvard_deployment
from repro.workloads.harvard import HarvardConfig, generate_harvard
from repro.workloads.web import WebConfig, generate_web


@pytest.fixture(scope="module")
def harvard():
    return generate_harvard(HarvardConfig(users=4, days=1.0, seed=6))


@pytest.fixture(scope="module")
def web():
    return generate_web(WebConfig(users=8, days=1.0, sites=12, seed=6))


@pytest.fixture(scope="module")
def d2_result(harvard):
    return run_harvard_balance(harvard, "d2", n_nodes=16, seed=1)


class TestHarvardBalance:
    def test_samples_cover_duration(self, d2_result, harvard):
        assert d2_result.samples[0].time == 0.0
        assert d2_result.samples[-1].time >= harvard.duration - 6 * 3600.0

    def test_d2_beats_traditional_file(self, harvard, d2_result):
        trad_file = run_harvard_balance(harvard, "traditional-file", n_nodes=16, seed=1)
        assert d2_result.mean_nsd() < trad_file.mean_nsd()

    def test_unbalanced_systems_never_move(self, harvard):
        trad = run_harvard_balance(harvard, "traditional", n_nodes=16, seed=1)
        assert trad.moves == 0
        assert sum(trad.daily_migrated) == 0

    def test_d2_moves_and_migrates(self, d2_result):
        assert d2_result.moves > 0
        assert sum(d2_result.daily_migrated) > 0

    def test_churn_rows_shape(self, d2_result):
        rows = d2_result.churn_rows()
        assert len(rows) >= 1
        for row in rows:
            assert row["write_ratio"] >= 0

    def test_overhead_rows_per_node(self, d2_result):
        rows = d2_result.overhead_rows()
        total_w = sum(r["write_mb_per_node"] for r in rows)
        assert total_w == pytest.approx(
            sum(d2_result.daily_written) / 1e6 / d2_result.n_nodes
        )

    def test_migration_over_write_bounded(self, d2_result):
        """Pointers keep migration comparable to write volume (Table 4).

        At this very small scale (16 nodes, 1 day) removals also trigger
        rebalancing of old data, so the bound is loose; the Table-4 bench
        at full scale lands near the paper's ~0.5.
        """
        assert d2_result.migration_over_write() < 3.0


class TestWebcacheBalance:
    def test_d2_balances_webcache(self, web):
        d2 = run_webcache_balance(web, "d2", n_nodes=16, seed=1)
        trad = run_webcache_balance(web, "traditional", n_nodes=16, seed=1)
        assert d2.moves > 0
        assert trad.moves == 0
        assert d2.mean_nsd() < trad.mean_nsd()

    def test_high_churn_ratios(self, web):
        d2 = run_webcache_balance(web, "d2", n_nodes=16, seed=1)
        rows = d2.churn_rows()
        # The DHT starts empty: day-1 ratio is infinite or very large.
        assert rows[0]["write_ratio"] > 1.0

    def test_unknown_system_rejected(self, web):
        with pytest.raises(ValueError):
            run_webcache_balance(web, "traditional-file", n_nodes=8)


class TestStabilizeOnRetiringKeysPinned:
    """Known gap, pinned not fixed (ROADMAP, the fs-plan item): loading an
    image re-versions each directory once per entry, and every superseded
    version waits out its 30 s grace period in the directory.  ``stabilize``
    runs at time 0 with all of them there, so it balances keys that vanish
    30 s later.  At seed 11 and the benchmark's sizes, 31 % of
    ``write-balance``'s keys and 33 % of ``fetch-latency``'s are such
    versions; once they expire, primary-load NSD goes 0.39 -> 0.64 and
    0.45 -> 0.73.  Fixing it moves committed rows."""

    @pytest.mark.xfail(strict=True, reason="stabilize balances keys still in their "
                       "grace period; fixing it moves committed rows")
    def test_stabilize_balances_the_keys_that_outlive_the_grace_period(self, harvard):
        deployment = harvard_deployment(harvard, "d2", 16, seed=1)
        balanced = deployment.store.primary_loads()
        deployment.sim.run(until=deployment.sim.now + deployment.store.removal_delay)
        assert deployment.store.primary_loads() == balanced
