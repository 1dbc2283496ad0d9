"""The fault layer: churn schedules, straggle traces, elastic SimCluster.

Covers static validation of ``ChurnEvent``/``FaultSchedule`` (the whole
schedule is data, so impossible schedules must fail at construction),
the exact straggle-window composition on every speed-trace type (via
the new ``work_until`` integral), and the cluster-level mechanics of
mid-simulation failures and joins: orphan collection, busy-time
truncation, requeue via ``resubmit``, and late-dependency rerouting
through the orphan handler.
"""

import numpy as np
import pytest

from repro.amt.cluster import (ConstantSpeed, PiecewiseSpeed, RampSpeed,
                               SimCluster, StraggleSpeed)
from repro.amt.des import SimulationError
from repro.amt.faults import (DEFAULT_RECOVERY_PENALTY, ChurnEvent,
                              FaultSchedule, RecoveryEvent)


class TestChurnEvent:
    def test_round_trip(self):
        for e in (ChurnEvent("fail", 1.5, 2),
                  ChurnEvent("join", 2.0, 4, cores=2, rate=2e9),
                  ChurnEvent("straggle", 0.5, 0, stop=1.0, factor=0.3)):
            assert ChurnEvent.from_dict(e.to_dict()) == e

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown churn event kind"):
            ChurnEvent("explode", 1.0, 0)
        with pytest.raises(ValueError, match="time must be >= 0"):
            ChurnEvent("fail", -1.0, 0)
        with pytest.raises(ValueError, match="node must be >= 0"):
            ChurnEvent("fail", 1.0, -1)
        with pytest.raises(ValueError, match="cores must be >= 1"):
            ChurnEvent("join", 1.0, 4, cores=0)
        with pytest.raises(ValueError, match="stop > time"):
            ChurnEvent("straggle", 1.0, 0, stop=1.0)
        with pytest.raises(ValueError, match="factor must be in"):
            ChurnEvent("straggle", 1.0, 0, stop=2.0, factor=0.0)
        with pytest.raises(ValueError, match="factor must be in"):
            ChurnEvent("straggle", 1.0, 0, stop=2.0, factor=1.5)


class TestFaultSchedule:
    def test_round_trip_and_sorting(self):
        sched = FaultSchedule(3, (
            ChurnEvent("fail", 2.0, 1),
            ChurnEvent("straggle", 0.5, 0, stop=1.5, factor=0.5),
            ChurnEvent("join", 1.0, 3),
        ))
        assert [e.kind for e in sched.events] == ["straggle", "join", "fail"]
        assert FaultSchedule.from_dict(sched.to_dict()) == sched
        assert sched.max_nodes == 4
        assert sched.straggles_of(0)[0].factor == 0.5
        assert sched.straggles_of(1) == []

    def test_max_nodes_counts_every_join(self):
        assert FaultSchedule(3, ()).max_nodes == 3
        sched = FaultSchedule(2, (ChurnEvent("join", 1.0, 2),
                                  ChurnEvent("join", 2.0, 3),
                                  ChurnEvent("fail", 3.0, 0)))
        assert sched.max_nodes == 4

    def test_straggles_of_in_time_order(self):
        sched = FaultSchedule(2, (
            ChurnEvent("straggle", 5.0, 0, stop=6.0, factor=0.5),
            ChurnEvent("straggle", 1.0, 0, stop=2.0, factor=0.25),
            ChurnEvent("straggle", 3.0, 1, stop=4.0, factor=0.5)))
        assert [e.time for e in sched.straggles_of(0)] == [1.0, 5.0]
        assert [e.factor for e in sched.straggles_of(1)] == [0.5]

    def test_same_instant_join_covers_fail(self):
        # join sorts before fail at the same instant, so the pair is
        # legal even on a 1-node cluster
        sched = FaultSchedule(1, (ChurnEvent("fail", 1.0, 0),
                                  ChurnEvent("join", 1.0, 1)))
        assert [e.kind for e in sched.events] == ["join", "fail"]

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError, match="before it exists"):
            FaultSchedule(2, (ChurnEvent("fail", 1.0, 5),))

    def test_rejects_non_sequential_join_ids(self):
        with pytest.raises(ValueError, match="sequential"):
            FaultSchedule(2, (ChurnEvent("join", 1.0, 7),))

    def test_rejects_event_before_join(self):
        # a fail strictly before the join: the target does not exist yet
        with pytest.raises(ValueError, match="before it exists"):
            FaultSchedule(2, (ChurnEvent("join", 2.0, 2),
                              ChurnEvent("fail", 1.0, 2)))
        # at the join instant itself: still too early
        with pytest.raises(ValueError, match="not after its join"):
            FaultSchedule(2, (ChurnEvent("join", 2.0, 2),
                              ChurnEvent("fail", 2.0, 2)))

    def test_rejects_double_fail_and_post_fail_straggle(self):
        with pytest.raises(ValueError, match="after it failed"):
            FaultSchedule(3, (ChurnEvent("fail", 1.0, 0),
                              ChurnEvent("fail", 2.0, 0)))
        with pytest.raises(ValueError, match="after it failed"):
            FaultSchedule(3, (ChurnEvent("fail", 1.0, 0),
                              ChurnEvent("straggle", 2.0, 0, stop=3.0)))

    def test_rejects_emptying_the_cluster(self):
        with pytest.raises(ValueError, match="no alive nodes"):
            FaultSchedule(2, (ChurnEvent("fail", 1.0, 0),
                              ChurnEvent("fail", 2.0, 1)))

    def test_recovery_penalty_validation(self):
        assert FaultSchedule(1).recovery_penalty == DEFAULT_RECOVERY_PENALTY
        with pytest.raises(ValueError, match="recovery_penalty"):
            FaultSchedule(1, (), recovery_penalty=-0.1)

    def test_recovery_event_round_trip(self):
        e = RecoveryEvent(time=1.5, kind="fail", node=2, sds_evacuated=4,
                          tasks_requeued=3, recovery_bytes=2048)
        assert RecoveryEvent.from_dict(e.to_dict()) == e


class TestStraggleSpeed:
    def test_rate_inside_and_outside_windows(self):
        tr = StraggleSpeed(ConstantSpeed(10.0), [(1.0, 2.0, 0.5)])
        assert tr.rate(0.5) == 10.0
        assert tr.rate(1.0) == 5.0   # window start is inclusive
        assert tr.rate(1.999) == 5.0
        assert tr.rate(2.0) == 10.0  # window stop is exclusive

    def test_time_to_complete_spans_window_exactly(self):
        tr = StraggleSpeed(ConstantSpeed(10.0), [(1.0, 2.0, 0.5)])
        # 10 units before the window, 5 inside, 10 after
        assert tr.time_to_complete(10.0, 0.0) == pytest.approx(1.0)
        assert tr.time_to_complete(15.0, 0.0) == pytest.approx(2.0)
        assert tr.time_to_complete(25.0, 0.0) == pytest.approx(3.0)
        # starting inside the window
        assert tr.time_to_complete(5.0, 1.0) == pytest.approx(1.0)

    def test_work_until_inverts_time_to_complete(self):
        tr = StraggleSpeed(PiecewiseSpeed([2.0], [4.0, 8.0]),
                           [(1.0, 3.0, 0.25)])
        for work in (0.5, 3.0, 7.0, 20.0):
            dt = tr.time_to_complete(work, 0.5)
            assert tr.work_until(0.5, 0.5 + dt) == pytest.approx(work)

    def test_composes_onto_ramp(self):
        base = RampSpeed(2.0, 6.0, 1.0, 3.0)
        tr = StraggleSpeed(base, [(2.0, 4.0, 0.5)])
        # integral check against the base trace's own integral
        assert tr.work_until(0.0, 2.0) == pytest.approx(
            base.work_until(0.0, 2.0))
        assert tr.work_until(2.0, 4.0) == pytest.approx(
            0.5 * base.work_until(2.0, 4.0))
        dt = tr.time_to_complete(10.0, 0.0)
        assert tr.work_until(0.0, dt) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="stop > start"):
            StraggleSpeed(ConstantSpeed(1.0), [(2.0, 2.0, 0.5)])
        with pytest.raises(ValueError, match="must not overlap"):
            StraggleSpeed(ConstantSpeed(1.0),
                          [(1.0, 3.0, 0.5), (2.0, 4.0, 0.5)])
        with pytest.raises(ValueError, match="factor"):
            StraggleSpeed(ConstantSpeed(1.0), [(1.0, 2.0, 0.0)])


class TestElasticCluster:
    def test_fail_node_orphans_running_and_queued(self):
        cluster = SimCluster(2, cores_per_node=1,
                             speeds=[ConstantSpeed(1.0), ConstantSpeed(1.0)])
        futs = [cluster.submit(0, work=2.0, label=f"t{i}", tag=i)
                for i in range(3)]
        cluster.run(until=1.0)  # first task mid-flight, two queued
        orphans = cluster.fail_node(0)
        assert [t.label for t in orphans] == ["t0", "t1", "t2"]
        assert not cluster.nodes[0].alive
        assert cluster.active_node_ids() == [1]
        assert cluster.alive_mask() == [False, True]
        # busy time truncated at the failure instant, not the would-be
        # completion
        assert cluster.busy_time(0) == pytest.approx(1.0)
        # futures still pending: the caller requeues
        assert not any(f.is_ready() for f in futs)
        for t in orphans:
            cluster.resubmit(t, 1)
        cluster.run()
        assert all(f.is_ready() for f in futs)
        assert cluster.nodes[1].tasks_completed == 3

    def test_fail_rejects_last_alive_and_double_fail(self):
        cluster = SimCluster(2)
        cluster.fail_node(0)
        with pytest.raises(SimulationError, match="already failed"):
            cluster.fail_node(0)
        with pytest.raises(SimulationError, match="last alive"):
            cluster.fail_node(1)

    def test_submit_and_resubmit_reject_dead_node(self):
        cluster = SimCluster(2)
        fut = cluster.submit(1, work=1.0)
        cluster.fail_node(0)
        with pytest.raises(SimulationError, match="failed node"):
            cluster.submit(0, work=1.0)
        orphan_like = None
        with pytest.raises(SimulationError, match="failed node"):
            from repro.amt.cluster import SimTask
            orphan_like = SimTask(1, 1.0, None, "x")
            cluster.resubmit(orphan_like, 0)
        cluster.run()
        assert fut.is_ready()

    def test_late_dependency_routes_through_orphan_handler(self):
        """A task whose ghost message arrives after its node died must
        reach the orphan handler, not the dead node's queue."""
        cluster = SimCluster(2, speeds=[ConstantSpeed(1.0)] * 2)
        msg = cluster.send(1, 0, nbytes=10 ** 9)  # ~0.8s wire time
        fut = cluster.submit(0, work=1.0, deps=[msg], label="late", tag=7)
        rerouted = []

        def handler(task):
            rerouted.append(task.tag)
            cluster.resubmit(task, 1)

        cluster.fail_node(0)
        cluster.orphan_handler = handler
        cluster.run()
        assert rerouted == [7]
        assert fut.is_ready()

    def test_late_dependency_without_handler_raises(self):
        cluster = SimCluster(2, speeds=[ConstantSpeed(1.0)] * 2)
        msg = cluster.send(1, 0, nbytes=10 ** 9)
        cluster.submit(0, work=1.0, deps=[msg])
        cluster.fail_node(0)
        with pytest.raises(SimulationError, match="no orphan handler"):
            cluster.run()

    def test_add_node_mid_run(self):
        cluster = SimCluster(1, speeds=[ConstantSpeed(1.0)])
        cluster.submit(0, work=1.0)
        cluster.run()
        nid = cluster.add_node(cores=2, trace=ConstantSpeed(4.0))
        assert nid == 1
        assert cluster.active_node_ids() == [0, 1]
        fut = cluster.submit(1, work=8.0)
        start = cluster.now
        cluster.run()
        assert fut.is_ready()
        assert cluster.now - start == pytest.approx(2.0)  # 8 work @ 4/s
        assert cluster.busy_time(1) == pytest.approx(2.0)
        # the joiner's busy counter resolves through AGAS like the rest
        assert (cluster.agas.resolve("/counters/node1/busy_time")
                is cluster.nodes[1].counter)

    def test_cancelled_completion_does_not_fire(self):
        """The failure instant coinciding with a completion: the
        cancelled event must not complete the task (fault wins)."""
        cluster = SimCluster(2, speeds=[ConstantSpeed(1.0)] * 2)
        fut = cluster.submit(0, work=2.0)
        cluster.sim.schedule(2.0, lambda: cluster.fail_node(0),
                             priority=-1)  # same instant as completion
        cluster.run()
        assert not fut.is_ready()
        assert cluster.nodes[0].tasks_completed == 0
        assert cluster.busy_time(0) == pytest.approx(2.0)
