"""Unit tests for the extension experiment drivers at tiny scale."""

import pytest

from repro.experiments.extensions import (
    run_erasure_extension,
    run_hotspot_extension,
    run_hybrid_extension,
)
from repro.experiments.figures import FIGURES


class TestHybridDriver:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_hybrid_extension(
            n_nodes=24, victim_files=8, big_file_blocks=16, seed=13
        )

    def test_three_placements(self, rows):
        assert {r["placement"] for r in rows} == {
            "locality", "hybrid", "hybrid-position"
        }

    def test_hybrid_improves_capture(self, rows):
        by = {r["placement"]: r for r in rows}
        assert by["hybrid"]["captured_fraction"] <= by["locality"]["captured_fraction"]

    def test_hybrid_improves_outage_readability(self, rows):
        by = {r["placement"]: r for r in rows}
        assert (by["hybrid"]["readable_under_arc_outage"]
                >= by["locality"]["readable_under_arc_outage"])

    def test_rank_hybrid_widens_fanout(self, rows):
        by = {r["placement"]: r for r in rows}
        assert by["hybrid"]["bulk_read_fanout"] > by["locality"]["bulk_read_fanout"]

    def test_format(self, rows):
        assert "hybrid" in FIGURES["hybrid"].render([rows])


class TestHotspotDriver:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_hotspot_extension(
            n_nodes=16, n_files=8, n_clients=10, requests=800, seed=13
        )

    def test_two_schemes(self, rows):
        assert {r["scheme"] for r in rows} == {"replicas-only", "retrieval-caches"}

    def test_caches_flatten(self, rows):
        by = {r["scheme"]: r for r in rows}
        assert (by["retrieval-caches"]["max_over_mean_requests"]
                <= by["replicas-only"]["max_over_mean_requests"])

    def test_hit_fraction_sane(self, rows):
        cached = next(r for r in rows if r["scheme"] == "retrieval-caches")
        assert 0.0 < cached["cache_hit_fraction"] <= 1.0

    def test_format(self, rows):
        assert "hot spot" in FIGURES["hotspot"].render([rows]).lower()


class TestErasureDriver:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_erasure_extension(n_nodes=20, users=2, days=0.5, seed=13)

    def test_grid_complete(self, rows):
        assert len(rows) == 6  # 2 systems x 3 schemes

    def test_unavailability_in_range(self, rows):
        for row in rows:
            assert 0.0 <= row["unavailability"] <= 1.0

    def test_storage_overheads(self, rows):
        overheads = {r["redundancy"]: r["storage_overhead"] for r in rows}
        assert overheads["replication r=3"] == pytest.approx(3.0)
        assert overheads["erasure (4,2)"] == pytest.approx(2.0)

    def test_d2_never_worse_per_scheme(self, rows):
        by = {(r["system"], r["redundancy"]): r["unavailability"] for r in rows}
        for scheme in ("replication r=3", "erasure (6,2)", "erasure (4,2)"):
            assert by[("d2", scheme)] <= by[("traditional", scheme)] + 1e-9

    def test_format(self, rows):
        assert "erasure" in FIGURES["erasure"].render([rows]).lower()
