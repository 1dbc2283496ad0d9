"""DES fast-path contracts: pop order, run controls, profiling.

The queue must pop events in exactly ``(time, priority, seq)`` order —
``seq`` is insertion order, and that tie-breaking is the determinism
contract everything downstream (goldens, benches, the paper figures)
rests on.  The hypothesis suites drive it with adversarial schedules,
including cancellations and events scheduled from inside actions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.des import SimulationError, Simulator

#: (time, priority) pairs with heavy collisions so tie-breaking matters
_specs = st.lists(
    st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False),
              st.integers(min_value=-2, max_value=2)),
    max_size=120)


def _schedule(sim, fired, t, priority=0):
    """Schedule an event that records its own ``(time, priority, seq)``."""
    ev = sim.schedule(t, lambda: fired.append(ev._key()), priority=priority)
    return ev


class TestPopOrder:
    @given(_specs)
    @settings(max_examples=80, deadline=None)
    def test_pops_in_key_order(self, specs):
        sim, fired = Simulator(), []
        events = [_schedule(sim, fired, t, prio) for t, prio in specs]
        sim.run()
        assert fired == sorted(ev._key() for ev in events)
        assert sim.events_processed == len(specs)

    @given(_specs, st.integers(min_value=2, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_key_order_under_cancellation(self, specs, cancel_every):
        sim, fired = Simulator(), []
        events = [_schedule(sim, fired, t, prio) for t, prio in specs]
        for ev in events[::cancel_every]:
            ev.cancel()
        sim.run()
        assert fired == sorted(ev._key() for ev in events
                               if not ev.cancelled)

    @given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False),
                    max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_key_order_with_nested_scheduling(self, times):
        """Actions scheduling more events exercise mid-run inserts; they
        land at or after ``now`` with a later ``seq``, so the popped keys
        stay sorted."""
        sim, fired = Simulator(), []

        def spawn(t):
            def fire():
                fired.append(ev._key())
                child = sim.schedule_after(
                    t % 3.0, lambda: fired.append(child._key()))
            ev = sim.schedule(t, fire)

        for t in times:
            spawn(t)
        sim.run()
        assert len(fired) == 2 * len(times)
        assert fired == sorted(fired)

    def test_identical_time_storm(self):
        """Thousands of same-time events order by (priority, seq)."""
        sim, fired = Simulator(), []
        events = [_schedule(sim, fired, 1.0, i % 3 - 1) for i in range(3000)]
        sim.run()
        assert fired == sorted(ev._key() for ev in events)

    @given(_specs, st.integers(min_value=2, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_one_event_runs_pop_in_key_order(self, specs, cancel_every):
        """``run(max_events=1)`` windows drive the queue one event at a
        time; they must see the same order and skip the same cancelled
        entries."""
        sim, fired = Simulator(), []
        events = [_schedule(sim, fired, t, prio) for t, prio in specs]
        for ev in events[::cancel_every]:
            ev.cancel()
        while sim._queue.live:
            try:
                sim.run(max_events=1)
            except SimulationError:
                pass  # more events queued: the budget ended the window
            assert sim.now == fired[-1][0]
        assert fired == sorted(ev._key() for ev in events
                               if not ev.cancelled)
        assert sim.peek_time() is None

    def test_peek_time_skips_cancelled_heads(self):
        sim = Simulator()
        early = [sim.schedule(t, lambda: None) for t in (1.0, 2.0)]
        sim.schedule(3.0, lambda: None)
        assert sim.peek_time() == 1.0
        for ev in early:
            ev.cancel()
        assert sim.peek_time() == 3.0
        assert sim._queue.live == 1
        sim.run()
        assert sim.peek_time() is None
        assert sim.events_processed == 1


class TestRunControlEdges:
    """Run controls behave the same whether or not the opt-in profiler
    wraps each action (``_execute`` has a separate timed path)."""

    @pytest.fixture(params=[False, True], ids=["plain", "profiled"])
    def sim(self, request):
        return Simulator(profile=request.param)

    def test_max_events_raises_before_popping(self, sim):
        """The guard fires *before* the offending event is popped or
        counted, so the schedule can resume exactly where it stopped
        (regression: the seed popped and counted event N+1 first)."""
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=2)
        assert fired == [1.0, 2.0]
        assert sim.events_processed == 2
        assert sim._queue.live == 1
        # the untouched tail drains on the next run
        assert sim.run() == 3.0
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_exact_budget_completes(self, sim):
        for t in (1.0, 2.0):
            sim.schedule(t, lambda: None)
        assert sim.run(max_events=2) == 2.0

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append("at"))
        sim.schedule(5.0 + 1e-12, lambda: fired.append("after"))
        assert sim.run(until=5.0) == 5.0
        assert fired == ["at"]

    def test_cancelled_head_at_until_boundary(self, sim):
        """A cancelled event at the boundary is skipped, not fired, and
        must not stop the clock short of ``until``."""
        fired = []
        ev = sim.schedule(5.0, lambda: fired.append("dead"))
        sim.schedule(9.0, lambda: fired.append("late"))
        ev.cancel()
        assert sim.run(until=7.0) == 7.0
        assert fired == []
        assert sim._queue.live == 1

    def test_until_in_past_leaves_clock(self, sim):
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert sim.run(until=1.0) == 4.0
        assert sim.now == 4.0

    def test_until_with_empty_queue_advances_clock(self, sim):
        # the drained-queue path lands on `until` just like the
        # later-event path does — empty windows still tile virtual time
        assert sim.run(until=3.0) == 3.0
        assert sim.run(until=2.0) == 3.0  # never backwards

    def test_queue_keeps_live_count(self, sim):
        events = [sim.schedule(float(i), lambda: None) for i in range(10)]
        assert sim._queue.live == 10
        for ev in events[::2]:
            ev.cancel()
        assert sim._queue.live == 5
        events[1].cancel()
        assert sim._queue.live == 4
        sim.run()
        assert sim._queue.live == 0

    def test_mass_cancellation_compacts(self, sim):
        """Cancelling nearly everything triggers lazy compaction; the
        survivors still fire in order."""
        fired = []
        events = [sim.schedule(float(i), lambda i=i: fired.append(i))
                  for i in range(4000)]
        for ev in events:
            if ev.time % 100 != 0.0:
                ev.cancel()
        sim.run()
        assert fired == list(range(0, 4000, 100))


class TestProfiling:
    def test_counters_accumulate_by_class(self):
        sim = Simulator(profile=True)
        sim.schedule(1.0, lambda: None, klass="delivery")
        sim.schedule(2.0, lambda: None, klass="delivery")
        sim.schedule(3.0, lambda: None)  # untagged -> "event"
        sim.run()
        assert sim.profile["delivery"][0] == 2
        assert sim.profile["event"][0] == 1
        assert sim.profile["delivery"][1] >= 0.0
        report = sim.profile_report()
        assert "delivery" in report and "total" in report

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DES_PROFILE", raising=False)
        sim = Simulator()
        assert sim.profile is None
        assert "disabled" in sim.profile_report()

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_DES_PROFILE", "1")
        assert Simulator().profile == {}
