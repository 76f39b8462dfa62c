"""Tests for the TCP transfer-time model (slow start, idle restart)."""

import random

import pytest

from repro.sim.network import LatencyModel
from repro.sim.transport import MIN_RTO, TcpTransport


def make_transport(n=4, seed=0):
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(n)]
    model = LatencyModel.random(names, rng, mean_rtt=0.100)
    return TcpTransport(model), model


class TestSlowStart:
    def test_cold_8kb_block_needs_two_rtts(self):
        """The paper's observation: an 8 KB block on a cold connection
        cannot be delivered in one RTT (initial window is 2 segments)."""
        transport, model = make_transport()
        rtt = model.rtt("n0", "n1")
        result = transport.transfer("n0", "n1", 8192, 0.0, rate_bytes_per_sec=187_500)
        assert result.duration >= 2 * rtt * 0.9
        assert result.slow_start_rounds >= 1

    def test_window_persists_on_warm_connection(self):
        transport, model = make_transport()
        transport.transfer("n0", "n1", 64 * 1024, 0.0, rate_bytes_per_sec=187_500)
        first = transport.transfer("n0", "n1", 8192, 0.5, rate_bytes_per_sec=187_500)
        # The warm window covers 8 KB: no slow-start rounds.
        assert first.slow_start_rounds == 0

    def test_idle_connection_restarts(self):
        transport, model = make_transport()
        transport.transfer("n0", "n1", 64 * 1024, 0.0, rate_bytes_per_sec=187_500)
        rtt = model.rtt("n0", "n1")
        idle_gap = transport.rto(rtt) + 10.0
        result = transport.transfer(
            "n0", "n1", 8192, idle_gap + 10.0, rate_bytes_per_sec=187_500
        )
        assert result.restarted
        assert result.slow_start_rounds >= 1
        assert transport.slow_start_restarts == 1

    def test_busy_connection_does_not_restart(self):
        transport, model = make_transport()
        now = 0.0
        restarts_seen = 0
        for _ in range(5):
            result = transport.transfer("n0", "n1", 8192, now, rate_bytes_per_sec=187_500)
            restarts_seen += result.restarted
            now += result.duration + 0.01
        assert restarts_seen == 0

    def test_warm_transfer_faster_than_cold(self):
        transport, _ = make_transport()
        cold = transport.transfer("n0", "n1", 8192, 0.0, rate_bytes_per_sec=187_500)
        grow = transport.transfer(
            "n0", "n1", 64 * 1024, 1.0, rate_bytes_per_sec=187_500
        )
        # Issue before the connection idles past the RTO.
        warm = transport.transfer(
            "n0", "n1", 8192, 1.0 + grow.duration + 0.05, rate_bytes_per_sec=187_500
        )
        assert not warm.restarted
        assert warm.duration < cold.duration


class TestThroughput:
    def test_large_transfer_approaches_link_rate(self):
        transport, model = make_transport()
        nbytes = 10 * 1024 * 1024
        rate = 187_500.0
        result = transport.transfer("n0", "n1", nbytes, 0.0, rate_bytes_per_sec=rate)
        ideal = nbytes / rate
        assert result.duration == pytest.approx(ideal, rel=0.2)

    def test_duration_monotone_in_size(self):
        transport, _ = make_transport()
        small = transport.transfer("n0", "n2", 4096, 0.0, rate_bytes_per_sec=48_000)
        transport2, _ = make_transport()
        big = transport2.transfer("n0", "n2", 64 * 1024, 0.0, rate_bytes_per_sec=48_000)
        assert big.duration > small.duration

    def test_zero_bytes(self):
        transport, _ = make_transport()
        result = transport.transfer("n0", "n1", 0, 0.0, rate_bytes_per_sec=1000.0)
        assert result.duration >= 0.0

    def test_negative_bytes_rejected(self):
        transport, _ = make_transport()
        with pytest.raises(ValueError):
            transport.transfer("n0", "n1", -5, 0.0, rate_bytes_per_sec=1000.0)

    def test_local_transfer_pure_serialization(self):
        transport, _ = make_transport()
        result = transport.transfer("n0", "n0", 1000, 0.0, rate_bytes_per_sec=1000.0)
        assert result.duration == pytest.approx(1.0)


class TestRTO:
    def test_floor(self):
        transport, _ = make_transport()
        assert transport.rto(0.001) == MIN_RTO

    def test_scales_with_rtt(self):
        transport, _ = make_transport()
        assert transport.rto(0.5) == pytest.approx(1.0)


class TestStats:
    def test_warm_fraction(self):
        transport, model = make_transport()
        transport.transfer("n0", "n1", 8192, 0.0, rate_bytes_per_sec=187_500)
        transport.transfer("n0", "n1", 8192, 1000.0, rate_bytes_per_sec=187_500)
        assert transport.transfers == 2
        assert transport.slow_start_restarts == 1
