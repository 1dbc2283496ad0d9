"""Unit and property tests for the discrete-event simulation core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.des import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_empty_returns_zero(self):
        assert Simulator().run() == 0.0

    def test_single_event_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.5, lambda: fired.append(sim.now))
        assert sim.run() == 2.5
        assert fired == [2.5]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append(3))
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(2.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_ties_break_by_priority_then_insertion(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("late-prio"), priority=5)
        sim.schedule(1.0, lambda: order.append("first-inserted"), priority=0)
        sim.schedule(1.0, lambda: order.append("second-inserted"), priority=0)
        sim.run()
        assert order == ["first-inserted", "second-inserted", "late-prio"]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="time moves forward"):
            sim.schedule(1.0, lambda: None)

    def test_schedule_after_negative_raises(self):
        with pytest.raises(SimulationError, match="negative delay"):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_action_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(sim.now)
            if n > 0:
                sim.schedule_after(1.0, lambda: chain(n - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_cancelled_event_is_skipped(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        ev.cancel()
        sim.run()
        assert fired == ["b"]

    def test_live_count_skips_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim._queue.live == 2
        ev.cancel()
        assert sim._queue.live == 1


class TestRunControls:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        # the remaining event is still there and fires on the next run
        sim.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_when_queue_drains_early(self):
        """The drained-queue path lands on ``until`` exactly like the
        later-event path: ``schedule(1.0); run(until=5.0)`` must leave
        the clock at 5.0, not parked on the last event time."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        # successive windows tile virtual time without gaps
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_run_until_in_the_past_keeps_clock(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert sim.now == 3.0
        sim.run(until=1.0)  # empty queue, until behind now: no move
        assert sim.now == 3.0

    def test_run_until_exact_event_time_fires_then_holds(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [2]
        assert sim.now == 2.0

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule_after(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_not_reentrant(self):
        sim = Simulator()
        err = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                err.append(str(exc))

        sim.schedule(1.0, reenter)
        sim.run()
        assert err and "reentrant" in err[0]


class TestDeterminismProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6,
                                        allow_nan=False),
                              st.integers(min_value=-5, max_value=5)),
                    max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_execution_order_is_deterministic(self, specs):
        """Two identical schedules run in an identical order."""
        def run_once():
            sim = Simulator()
            order = []
            for idx, (t, prio) in enumerate(specs):
                sim.schedule(t, lambda i=idx: order.append(i), priority=prio)
            sim.run()
            return order

        assert run_once() == run_once()

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_fire_times_are_nondecreasing(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule(t, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)
