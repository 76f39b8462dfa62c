"""Tests for the latency model."""

import random

import pytest

from repro.sim.network import LatencyModel


class TestLatencyModel:
    def make(self, n=50, seed=0):
        rng = random.Random(seed)
        names = [f"n{i}" for i in range(n)]
        return LatencyModel.random(names, rng)

    def test_self_rtt_zero(self):
        model = self.make()
        assert model.rtt("n0", "n0") == 0.0

    def test_symmetric(self):
        model = self.make()
        assert model.rtt("n1", "n2") == pytest.approx(model.rtt("n2", "n1"))

    def test_positive_floor(self):
        model = self.make()
        for i in range(1, 10):
            assert model.rtt("n0", f"n{i}") >= 0.005

    def test_mean_rtt_calibrated(self):
        model = self.make(n=200)
        names = [f"n{i}" for i in range(200)]
        rng = random.Random(1)
        pairs = [rng.sample(names, 2) for _ in range(4000)]
        sample = sum(model.rtt(a, b) for a, b in pairs) / len(pairs)
        assert 0.070 <= sample <= 0.110  # within ~20% of the 90 ms target

    def test_one_way_is_half(self):
        model = self.make()
        assert model.one_way("n1", "n2") == pytest.approx(model.rtt("n1", "n2") / 2)

    def test_path_latency_sums_legs(self):
        model = self.make()
        path = ["n0", "n1", "n2"]
        expected = model.one_way("n0", "n1") + model.one_way("n1", "n2")
        assert model.path_latency(path) == pytest.approx(expected)

    def test_path_latency_single_node_zero(self):
        model = self.make()
        assert model.path_latency(["n0"]) == 0.0

    def test_triangle_inequality(self):
        """Euclidean embedding: no latency shortcuts through a relay."""
        model = self.make(n=30)
        for a, b, c in (("n1", "n2", "n3"), ("n4", "n9", "n17")):
            direct = model.rtt(a, c)
            relayed = model.rtt(a, b) + model.rtt(b, c)
            assert direct <= relayed + model._base  # base offset tolerance

    def test_empty_names_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel.random([], random.Random(0))
