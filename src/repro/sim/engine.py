"""Discrete-event simulation kernel.

Every long-running experiment in this reproduction (availability, load
balancing, end-to-end latency) is driven by :class:`Simulator`, a minimal
heap-based discrete-event engine.  Time is a float number of seconds since
the start of the simulation.

The kernel deliberately stays tiny: events are plain callbacks, there are no
processes or coroutines.  Components that need richer behaviour (periodic
probes, delayed block removal, pointer stabilization) build it out of
:meth:`Simulator.schedule` and :meth:`Simulator.schedule_periodic`.

A *counted* entry (``schedule(..., count=n)``) is one callback that does the
work of *n* events due at the same moment with consecutive sequence numbers,
such as the grace-period removals of one flush.  It fires once, and
``sim.events_fired``, ``sim.events_cancelled`` and :meth:`Simulator.pending`
count it as *n* events, so they read as if the *n* had been queued one by one.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple


class SimulationError(Exception):
    """Raised when the simulator is used incorrectly."""


class EventHandle(NamedTuple):
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Holding a handle allows the caller to cancel a pending event.  Handles
    order by ``(time, seq)``; the sequence number is unique per simulator
    instance.  A tuple, because most handles are never looked at again.
    """

    time: float
    seq: int


class Simulator:
    """A heap-based discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 5.0]
    """

    def __init__(self, start_time: float = 0.0, *, registry=None) -> None:
        self._now = float(start_time)
        # (time, seq, callback, count): see the module docstring on counts.
        self._queue: List[Tuple[float, int, Callable[[], None], int]] = []
        self._seq = itertools.count()
        self._cancelled: set = set()
        self._running = False
        # Optional observability hook (repro.obs.metrics.MetricsRegistry):
        # counts fired/cancelled events so a metrics snapshot can report how
        # much simulated work a run performed.  Kept duck-typed so the
        # kernel stays dependency-free.
        self._fired_counter = (
            registry.counter("sim.events_fired") if registry is not None else None
        )
        self._cancelled_counter = (
            registry.counter("sim.events_cancelled") if registry is not None else None
        )

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[[], None], *, count: int = 1
    ) -> EventHandle:
        """Schedule *callback* to fire ``delay`` seconds from now.

        Returns an :class:`EventHandle` that can be passed to :meth:`cancel`.
        ``delay`` must be non-negative; zero-delay events fire in FIFO order
        after the current callback returns.  *count* is how many events the
        entry stands for (module docstring); it fires once either way.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if count < 1:
            raise SimulationError(f"an entry counts at least one event, got {count}")
        seq = next(self._seq)
        when = self._now + delay
        heapq.heappush(self._queue, (when, seq, callback, count))
        return tuple.__new__(EventHandle, (when, seq))  # no generated __new__ frame

    def schedule_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule *callback* at absolute simulation time *when*."""
        return self.schedule(when - self._now, callback)

    def schedule_batch(
        self, events: Iterable[Tuple[float, Callable[[], None]]]
    ) -> List[EventHandle]:
        """Schedule many ``(delay, callback)`` pairs in one pass.

        Equivalent to calling :meth:`schedule` once per pair (sequence
        numbers are assigned in iteration order, so same-time events fire
        FIFO), but a large batch is appended and re-heapified in one O(n)
        pass instead of n O(log n) sifts — the fast path for event storms
        (periodic probe fleets, churn storms, scale-harness windows) that
        enqueue thousands of events between firings.
        """
        queue = self._queue
        now = self._now
        next_seq = self._seq.__next__
        handles: List[EventHandle] = []
        staged: List[Tuple[float, int, Callable[[], None], int]] = []
        for delay, callback in events:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            seq = next_seq()
            when = now + delay
            staged.append((when, seq, callback, 1))
            handles.append(tuple.__new__(EventHandle, (when, seq)))
        # Pop order is fully determined by the (time, seq) total order, so
        # the internal heap layout never affects behavior — only speed.
        if len(staged) > 8 and len(staged) * 4 > len(queue):
            queue.extend(staged)
            heapq.heapify(queue)
        else:
            for item in staged:
                heapq.heappush(queue, item)
        return handles

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        jitter: Callable[[], float] = lambda: 0.0,
        first_delay: Optional[float] = None,
    ) -> "PeriodicTask":
        """Fire *callback* every *interval* seconds until cancelled.

        ``jitter()`` is added to each period (e.g. to desynchronize load
        balancing probes across nodes).  The task object's :meth:`cancel`
        stops future firings.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, jitter)
        delay = first_delay if first_delay is not None else interval + jitter()
        task._arm(max(0.0, delay))
        return task

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event.  Cancelling a fired event is a no-op."""
        self._cancelled.add((handle.time, handle.seq))

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue drains or time *until* is reached.

        When *until* is given, the clock is advanced to exactly *until* even
        if the last event fires earlier, so that back-to-back calls with
        increasing horizons behave like a continuous run.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        queue = self._queue
        if until is not None and (not queue or queue[0][0] > until):
            # Nothing is due by *until* (the usual case between the records
            # of a replay): only the clock moves, and never backwards.
            if until > self._now:
                self._now = until
            return
        self._drain(until)

    def _drain(self, until: Optional[float]) -> None:
        """The event loop of :meth:`run`, entered only when an event is due."""
        self._running = True
        # Event-storm fast path: hoist attribute lookups out of the drain
        # loop and batch the fired-counter update — one `inc(total)` when
        # the run returns instead of a method call per event.  Counter
        # values are only observed between runs (snapshots), so batching
        # never changes a reported number.
        queue = self._queue
        cancelled = self._cancelled
        pop = heapq.heappop
        fired = 0
        try:
            while queue:
                when, seq, callback, count = queue[0]
                if until is not None and when > until:
                    break
                pop(queue)
                if cancelled and (when, seq) in cancelled:
                    cancelled.discard((when, seq))
                    if self._cancelled_counter is not None:
                        self._cancelled_counter.inc(count)
                    continue
                if when < self._now:
                    raise SimulationError("event queue corrupted: time went backwards")
                self._now = when
                callback()
                fired += count
            if until is not None and until > self._now:
                self._now = until
        finally:
            if fired and self._fired_counter is not None:
                self._fired_counter.inc(fired)
            self._running = False

    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) events still queued, a
        counted entry as its count.  A scan of the queue: for checks and
        reports, not for the event loop."""
        return sum(entry[3] for entry in self._queue)


class PeriodicTask:
    """A repeating event created by :meth:`Simulator.schedule_periodic`."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        jitter: Callable[[], float],
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._handle: Optional[EventHandle] = None
        self._cancelled = False

    def _arm(self, delay: float) -> None:
        self._handle = self._sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._callback()
        if not self._cancelled:
            self._arm(max(0.0, self._interval + self._jitter()))

    def cancel(self) -> None:
        """Stop the periodic task; pending firing is suppressed."""
        self._cancelled = True
        if self._handle is not None:
            self._sim.cancel(self._handle)
            self._handle = None


@dataclass
class TokenBucket:
    """A fluid-model bandwidth limiter.

    Used to cap per-node load-balancing (migration) traffic at 750 kbps and
    access links at 1500/384 kbps, as in the paper's simulator.  Rather than
    tracking individual packets, callers ask "when would *nbytes* finish if
    started now?" and the bucket serializes requests FIFO.
    """

    rate_bytes_per_sec: float
    available_at: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_bytes_per_sec <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_bytes_per_sec}")

    def reserve(self, now: float, nbytes: int) -> float:
        """Reserve capacity for *nbytes* starting at *now*.

        Returns the completion time.  Back-to-back reservations queue behind
        one another, modelling a saturated link.
        """
        if nbytes < 0:
            raise ValueError("cannot reserve negative bytes")
        start = max(now, self.available_at)
        self.available_at = start + nbytes / self.rate_bytes_per_sec
        return self.available_at


def kbps(value: float) -> float:
    """Convert kilobits/sec to bytes/sec (paper quotes link speeds in kbps)."""
    return value * 1000.0 / 8.0
