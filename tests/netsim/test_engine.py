"""Tests for the discrete-event engine."""

import pytest

from repro.netsim import SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(3.0, order.append, "latest")
        sim.run()
        assert order == ["early", "late", "latest"]

    def test_ties_break_by_insertion_order(self, sim):
        """Many events on one timestamp fire in insertion order, and the
        heap never compares handles: the callbacks are mutually
        unorderable objects, so falling through to one would raise
        ``TypeError``."""
        class Callback:
            def __init__(self, tag):
                self.tag = tag

            def __call__(self):
                order.append(self.tag)

        order = []
        for tag in range(200):
            sim.schedule(1.0, Callback(tag))
            sim.schedule_at(0.5, Callback(-tag - 1))
        sim.run()
        assert order == ([-tag - 1 for tag in range(200)]
                         + list(range(200)))

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_schedule_in_past_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_nan_time_rejected(self, sim):
        """Regression: ``nan < 0`` is false, so a NaN delay used to be
        accepted, fire, and set the clock to NaN."""
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        sim.run(until=1.0)
        assert sim.now == 1.0 and sim.events_executed == 0

    def test_schedule_at_before_now_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_nested_scheduling(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0

    def test_kwargs_passed_through(self, sim):
        result = {}
        sim.schedule(0.5, lambda **kw: result.update(kw), value=7)
        sim.run()
        assert result == {"value": 7}


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending() == 1
        del keep


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0

    def test_run_until_advances_clock_on_empty_queue(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_budget(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_zero_event_budget_executes_nothing(self, sim):
        """Regression: the budget used to be tested after dispatch, so
        ``max_events=0`` ran one event."""
        fired = []
        sim.schedule(1.0, fired.append, "x")
        sim.run(until=5.0, max_events=0)
        assert fired == [] and sim.events_executed == 0
        assert sim.now == 0.0 and sim.pending() == 1

    def test_max_events_truncation_does_not_jump_clock(self, sim):
        """Regression: when `max_events` truncates a bounded run, the
        clock must not jump to `until` past still-queued events — a later
        run() would then set `now` backwards (time travel)."""
        fired = []
        observed = []

        def fire(i):
            fired.append(i)
            observed.append(sim.now)

        for i in range(10):
            sim.schedule(float(i + 1), fire, i)
        sim.run(until=20.0, max_events=3)
        assert sim.now == 3.0  # at the last executed event, not 20.0
        sim.run(until=20.0)
        assert observed == [float(i + 1) for i in range(10)]
        assert fired == list(range(10))
        assert sim.now == 20.0

    def test_truncated_run_resumes_without_losing_events(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(until=10.0, max_events=2)
        assert fired == [0, 1]
        sim.run(until=10.0)
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_still_advances_when_only_cancelled_events_remain(
            self, sim):
        handle = sim.schedule(3.0, lambda: None)
        handle.cancel()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_events_executed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestPeriodic:
    def test_periodic_fires_at_interval(self, sim):
        times = []
        sim.every(1.0, lambda: times.append(sim.now))
        sim.run(until=4.5)
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_periodic_with_start_offset(self, sim):
        times = []
        sim.every(2.0, lambda: times.append(sim.now), start=1.0)
        sim.run(until=6.0)
        assert times == [1.0, 3.0, 5.0]

    def test_stop_halts_recurrence(self, sim):
        times = []
        proc = sim.every(1.0, lambda: times.append(sim.now))
        sim.schedule(2.5, proc.stop)
        sim.run(until=10.0)
        assert times == [0.0, 1.0, 2.0]

    def test_interval_must_be_positive(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_interval_change_applies_next_cycle(self, sim):
        times = []
        proc = sim.every(1.0, lambda: times.append(sim.now))

        def widen():
            proc.interval = 3.0

        sim.schedule(1.5, widen)
        sim.run(until=9.0)
        assert times == [0.0, 1.0, 2.0, 5.0, 8.0]


class TestDeterminism:
    def test_same_seed_same_rng_stream(self):
        a = Simulator(seed=123)
        b = Simulator(seed=123)
        assert [a.rng.random() for _ in range(5)] == \
            [b.rng.random() for _ in range(5)]

    def test_different_seed_different_stream(self):
        a = Simulator(seed=1)
        b = Simulator(seed=2)
        assert a.rng.random() != b.rng.random()


class TestWindowedRun:
    """The scheduler's look-ahead query."""

    def test_next_event_time(self):
        sim = Simulator()
        assert sim.next_event_time() is None
        handle = sim.schedule(0.5, lambda: None)
        sim.schedule(1.5, lambda: None)
        assert sim.next_event_time() == 0.5
        handle.cancel()
        assert sim.next_event_time() == 1.5
