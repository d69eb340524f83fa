"""Discrete-event simulation engine.

The engine is the substrate everything else in :mod:`repro.netsim` runs on.
It keeps a priority queue of timestamped callbacks and executes them in
order.  Determinism matters for reproducing the paper's experiments, so ties
on the timestamp are broken by insertion order and all randomness flows from
a single seeded :class:`random.Random` owned by the simulator.

The engine intentionally mirrors the small core of ns3 that the paper's
"customized ns3 with bmv2 support" evaluation relies on: a virtual clock,
one-shot events, periodic processes, and cancellation.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..telemetry import metrics

# Cached process-wide metric objects (see DESIGN.md "Telemetry"): the
# execution loop touches these once per event, so the per-event overhead
# is a couple of attribute adds — no registry lookups on the hot path.
_MET = metrics()
_C_SCHEDULED = _MET.counter(
    "sim_events_scheduled_total", "events pushed onto the simulator queue")
_C_EXECUTED = _MET.counter(
    "sim_events_executed_total", "events whose callback actually ran")
_C_CANCELLED = _MET.counter(
    "sim_events_cancelled_total",
    "cancelled events discarded when they reached the head of the queue")
_G_QUEUE_DEPTH = _MET.gauge(
    "sim_queue_depth", "pending entries in the event queue (incl. "
    "cancelled ones not yet discarded)")


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. time travel)."""


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation."""

    __slots__ = ("fn", "args", "kwargs", "cancelled", "time")

    def __init__(self, time: float, fn: Callable[..., Any],
                 args: tuple, kwargs: dict):
        self.time = time
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"EventHandle(t={self.time:.6f}, fn={name}, cancelled={self.cancelled})"


class PeriodicProcess:
    """A recurring event created by :meth:`Simulator.every`.

    The process reschedules itself after each firing until stopped.  The
    interval can be changed on the fly, which takes effect from the next
    rescheduling onward (used e.g. to adapt probe frequencies).
    """

    def __init__(self, sim: "Simulator", interval: float,
                 fn: Callable[..., Any], args: tuple, kwargs: dict):
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.stopped = False
        self._handle: Optional[EventHandle] = None

    def start(self, delay: float = 0.0) -> "PeriodicProcess":
        self._handle = self.sim.schedule(delay, self._fire)
        return self

    def stop(self) -> None:
        self.stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if self.stopped:
            return
        self.fn(*self.args, **self.kwargs)
        if not self.stopped:
            self._handle = self.sim.schedule(self.interval, self._fire)


class Simulator:
    """The discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned RNG.  Every stochastic component in the
        simulation draws from :attr:`rng` so a given seed reproduces a run
        exactly.
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        #: Heap of ``(time, seq, handle)``.  ``seq`` is unique, so tuple
        #: comparison never reaches the handle and equal timestamps fire
        #: in insertion order.
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self.rng = random.Random(seed)
        self.seed = seed
        self._events_executed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for instrumentation)."""
        return self._events_executed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any, **kwargs: Any) -> EventHandle:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args, **kwargs)

    def schedule_at(self, time: float, fn: Callable[..., Any],
                    *args: Any, **kwargs: Any) -> EventHandle:
        """Schedule ``fn`` at an absolute simulation time."""
        if not time >= self._now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}")
        handle = EventHandle(time, fn, args, kwargs)
        heapq.heappush(self._queue, (time, next(self._seq), handle))
        _C_SCHEDULED.inc()
        _G_QUEUE_DEPTH.set(len(self._queue))
        return handle

    def every(self, interval: float, fn: Callable[..., Any],
              *args: Any, start: float = 0.0, **kwargs: Any) -> PeriodicProcess:
        """Run ``fn`` every ``interval`` seconds, first firing after ``start``."""
        proc = PeriodicProcess(self, interval, fn, args, kwargs)
        return proc.start(start)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` passes, or the
        event budget is exhausted.  Returns the final simulation time.

        This loop is the engine's only dispatch site: every callback the
        simulator ever runs is called from here.
        """
        queue = self._queue
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        executed = 0
        while queue and executed < budget:
            time, _, handle = queue[0]
            if time > horizon:
                break
            heapq.heappop(queue)
            _G_QUEUE_DEPTH.set(len(queue))
            if handle.cancelled:
                _C_CANCELLED.inc()
                continue
            self._now = time
            handle.fn(*handle.args, **handle.kwargs)
            self._events_executed += 1
            _C_EXECUTED.inc()
            executed += 1
        if until is not None and self._now < until:
            # Advance the clock to the horizon only when no live event
            # remains at or before it — i.e. the queue genuinely drained
            # (or only holds later events).  When `max_events` truncated
            # the run mid-horizon, jumping ahead would strand the queued
            # events in the past and make a later run() rewind the clock.
            next_live = self.next_event_time()
            if next_live is None or next_live > until:
                self._now = until
        return self._now

    def _live_times(self) -> Iterator[float]:
        """Timestamps of the queued events that are not cancelled, in
        heap (not time) order."""
        return (time for time, _, handle in self._queue
                if not handle.cancelled)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest live (non-cancelled) queued event,
        or ``None`` when the queue is effectively empty."""
        return min(self._live_times(), default=None)

    def pending(self) -> int:
        """Number of queued events that are not cancelled."""
        return sum(1 for _ in self._live_times())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Simulator(now={self._now:.6f}, pending={self.pending()}, "
                f"executed={self._events_executed})")
