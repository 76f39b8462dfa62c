"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import SimulationError, Simulator, TokenBucket, kbps


class TestSimulatorBasics:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=42.0).now == 42.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]
        assert sim.now == 3.5

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_zero_delay_event_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=10.0)
        seen = []
        sim.schedule_at(15.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [15.0]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(sim.now)
            sim.schedule(2.0, lambda: fired.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [1.0, 3.0]


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_continuing_run_fires_remaining_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run(until=20.0)
        assert fired == [1, 10]

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(True))
        sim.run(until=5.0)
        assert fired == [True]


class TestIdleRun:
    """``run(until)`` with nothing due by *until* only moves the clock."""

    def sim_with_later_events(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        sim = Simulator(registry=registry)
        fired = []
        sim.schedule(50.0, lambda: fired.append(50))
        cancelled = sim.schedule(60.0, lambda: fired.append(60))
        sim.cancel(cancelled)
        return sim, registry, fired

    def test_advances_clock_and_fires_nothing(self, monkeypatch):
        sim, registry, fired = self.sim_with_later_events()
        monkeypatch.setattr(sim, "_drain", lambda until: pytest.fail("event loop entered"))
        for until in (10.0, 20.0, 49.999):
            sim.run(until=until)
            assert sim.now == until
        assert fired == [] and sim.pending() == 2
        assert registry.counter("sim.events_fired").value == 0
        assert registry.counter("sim.events_cancelled").value == 0
        monkeypatch.undo()
        sim.run(until=100.0)
        assert fired == [50] and sim.pending() == 0
        assert registry.counter("sim.events_fired").value == 1
        assert registry.counter("sim.events_cancelled").value == 1

    def test_empty_queue_is_idle_too(self, monkeypatch):
        sim = Simulator(start_time=5.0)
        monkeypatch.setattr(sim, "_drain", lambda until: pytest.fail("event loop entered"))
        sim.run(until=7.5)
        assert sim.now == 7.5 and sim.pending() == 0

    def test_never_moves_the_clock_backwards(self):
        sim, _, fired = self.sim_with_later_events()
        sim.run(until=30.0)
        sim.run(until=20.0)
        assert sim.now == 30.0 and fired == []

    def test_still_not_reentrant(self):
        sim = Simulator()
        seen = []

        def reenter():
            with pytest.raises(SimulationError):
                sim.run(until=sim.now + 1000.0)  # nothing due by then but this event
            seen.append(sim.now)

        sim.schedule(1.0, reenter)
        sim.schedule(5000.0, lambda: None)
        sim.run(until=2.0)
        assert seen == [1.0] and sim.now == 2.0


class TestCancel:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(True))
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(True))
        sim.run()
        sim.cancel(handle)
        assert fired == [True]

    def test_step_skips_cancelled(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.cancel(handle)
        sim.run(until=2.0)
        assert fired == ["b"]


class TestStep:
    def test_step_fires_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=1.5)
        assert fired == [1] and sim.pending() == 1


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        sim = Simulator()
        fired = []
        sim.schedule_periodic(10.0, lambda: fired.append(sim.now))
        sim.run(until=35.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_first_delay_override(self):
        sim = Simulator()
        fired = []
        sim.schedule_periodic(10.0, lambda: fired.append(sim.now), first_delay=1.0)
        sim.run(until=12.0)
        assert fired == [1.0, 11.0]

    def test_cancel_stops_future_firings(self):
        sim = Simulator()
        fired = []
        task = sim.schedule_periodic(10.0, lambda: fired.append(sim.now))
        sim.run(until=15.0)
        task.cancel()
        sim.run(until=100.0)
        assert fired == [10.0]

    def test_jitter_applied(self):
        sim = Simulator()
        fired = []
        sim.schedule_periodic(10.0, lambda: fired.append(sim.now), jitter=lambda: 1.0)
        sim.run(until=25.0)
        assert fired == [11.0, 22.0]

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_periodic(0.0, lambda: None)


class TestTokenBucket:
    def test_reserve_duration(self):
        bucket = TokenBucket(rate_bytes_per_sec=100.0)
        assert bucket.reserve(0.0, 200) == pytest.approx(2.0)

    def test_back_to_back_reservations_queue(self):
        bucket = TokenBucket(rate_bytes_per_sec=100.0)
        bucket.reserve(0.0, 100)
        assert bucket.reserve(0.0, 100) == pytest.approx(2.0)

    def test_idle_bucket_starts_at_now(self):
        bucket = TokenBucket(rate_bytes_per_sec=100.0)
        bucket.reserve(0.0, 100)
        assert bucket.reserve(10.0, 100) == pytest.approx(11.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(100.0).reserve(0.0, -1)

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_non_positive_rate_rejected(self, rate):
        # Not an infinitely fast link: a gigabyte at rate 0 took no time.
        with pytest.raises(ValueError, match="rate must be positive"):
            TokenBucket(rate)

    def test_kbps_conversion(self):
        assert kbps(1500) == pytest.approx(187500.0)
        assert kbps(750) == pytest.approx(93750.0)


class TestReentrancy:
    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, reenter)
        sim.run()


class TestScheduleBatch:
    def test_equivalent_to_single_schedules(self):
        """A batch fires in the same order as one-by-one scheduling."""
        a, b = Simulator(), Simulator()
        fired_a, fired_b = [], []
        events = [(3.0, "x"), (1.0, "y"), (3.0, "z"), (0.0, "w")]
        for delay, tag in events:
            a.schedule(delay, lambda t=tag: fired_a.append((a.now, t)))
        b.schedule_batch(
            (delay, lambda t=tag: fired_b.append((b.now, t)))
            for delay, tag in events
        )
        a.run()
        b.run()
        assert fired_a == fired_b == [(0.0, "w"), (1.0, "y"), (3.0, "x"), (3.0, "z")]

    def test_large_batch_heapify_path(self):
        """Batches big enough to trigger the heapify fast path still pop
        in (time, seq) order."""
        sim = Simulator()
        sim.schedule(500.0, lambda: None)
        fired = []
        sim.schedule_batch(
            (float(999 - i), (lambda i=i: fired.append(i))) for i in range(1000)
        )
        sim.run()
        assert fired == list(reversed(range(1000)))

    def test_handles_are_cancellable(self):
        sim = Simulator()
        fired = []
        handles = sim.schedule_batch(
            [(1.0, lambda: fired.append("a")), (2.0, lambda: fired.append("b"))]
        )
        sim.cancel(handles[1])
        sim.run()
        assert fired == ["a"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_batch([(1.0, lambda: None), (-0.1, lambda: None)])

    def test_empty_batch(self):
        sim = Simulator()
        assert sim.schedule_batch([]) == []
        sim.run()

    def test_counts_fired_events(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        sim = Simulator(registry=registry)
        sim.schedule_batch([(float(i), lambda: None) for i in range(5)])
        sim.run()
        assert registry.counter("sim.events_fired").value == 5


class TestCountedEntry:
    """An entry scheduled with ``count=n`` fires once and reads as n events."""

    def make(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        return Simulator(registry=registry), registry

    def test_fires_once_and_counts_n(self):
        sim, registry = self.make()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now), count=3)
        sim.schedule(7.0, lambda: fired.append(sim.now))
        assert sim.pending() == 4 and len(sim._queue) == 2
        sim.run(until=6.0)
        assert fired == [5.0] and sim.pending() == 1
        assert registry.counter("sim.events_fired").value == 3
        sim.run()
        assert registry.counter("sim.events_fired").value == 4 and sim.pending() == 0

    def test_cancelled_counts_n(self):
        sim, registry = self.make()
        sim.cancel(sim.schedule(5.0, pytest.fail, count=3))
        assert sim.pending() == 3
        sim.run()
        assert sim.pending() == 0
        assert registry.counter("sim.events_cancelled").value == 3
        assert registry.counter("sim.events_fired").value == 0

    @pytest.mark.parametrize("count", [0, -2])
    def test_counts_at_least_one(self, count):
        sim, _ = self.make()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda: None, count=count)
        assert sim.pending() == 0
