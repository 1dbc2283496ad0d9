"""Tests for the simulated cluster: nodes, network, speed traces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.agas import AddressSpace, AgasError
from repro.amt.cluster import (ConstantSpeed, PiecewiseSpeed, RampSpeed,
                               SimCluster)
from repro.amt.des import SimulationError
from repro.amt.future import Future, when_all
from repro.amt.topology import FlatTopology


class TestSpeedTraces:
    def test_constant_rate(self):
        tr = ConstantSpeed(2.0)
        assert tr.rate(0.0) == 2.0
        assert tr.time_to_complete(10.0, 0.0) == 5.0

    def test_constant_invalid_rate(self):
        with pytest.raises(ValueError):
            ConstantSpeed(0.0)

    def test_constant_negative_work(self):
        with pytest.raises(ValueError):
            ConstantSpeed(1.0).time_to_complete(-1.0, 0.0)

    def test_piecewise_rate_lookup(self):
        tr = PiecewiseSpeed([10.0], [1.0, 4.0])
        assert tr.rate(5.0) == 1.0
        assert tr.rate(10.0) == 4.0
        assert tr.rate(100.0) == 4.0

    def test_piecewise_integrates_across_breakpoint(self):
        # 5 units at rate 1 (takes 5s to t=10 boundary? start at t=7):
        # from t=7 to t=10 at rate 1 -> 3 units, remaining 2 at rate 4 -> 0.5s
        tr = PiecewiseSpeed([10.0], [1.0, 4.0])
        assert tr.time_to_complete(5.0, 7.0) == pytest.approx(3.5)

    def test_piecewise_entirely_in_last_segment(self):
        tr = PiecewiseSpeed([10.0], [1.0, 4.0])
        assert tr.time_to_complete(8.0, 20.0) == pytest.approx(2.0)

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseSpeed([1.0], [1.0])  # wrong rate count
        with pytest.raises(ValueError):
            PiecewiseSpeed([2.0, 1.0], [1.0, 1.0, 1.0])  # not increasing
        with pytest.raises(ValueError):
            PiecewiseSpeed([1.0], [1.0, -1.0])  # negative rate

    @given(work=st.floats(min_value=0, max_value=1e4),
           t0=st.floats(min_value=0, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_piecewise_consistent_with_manual_integration(self, work, t0):
        tr = PiecewiseSpeed([5.0, 15.0], [2.0, 1.0, 3.0])
        dt = tr.time_to_complete(work, t0)
        # integrate rate over [t0, t0+dt] manually
        done, t, end = 0.0, t0, t0 + dt
        for b in [5.0, 15.0, float("inf")]:
            seg_end = min(b, end)
            if seg_end > t:
                done += (seg_end - t) * tr.rate(t)
                t = seg_end
            if t >= end:
                break
        assert done == pytest.approx(work, abs=1e-6, rel=1e-6)


class TestRampSpeed:
    def test_rate_profile(self):
        tr = RampSpeed(1.0, 3.0, 10.0, 20.0)
        assert tr.rate(0.0) == 1.0
        assert tr.rate(10.0) == 1.0
        assert tr.rate(15.0) == pytest.approx(2.0)
        assert tr.rate(20.0) == 3.0
        assert tr.rate(100.0) == 3.0

    def test_flat_head_segment(self):
        tr = RampSpeed(2.0, 4.0, 10.0, 20.0)
        # entirely before the ramp: plain constant rate
        assert tr.time_to_complete(10.0, 0.0) == pytest.approx(5.0)

    def test_integrates_across_the_ramp(self):
        tr = RampSpeed(1.0, 3.0, 10.0, 20.0)
        # full ramp holds the trapezoid area 0.5*(1+3)*10 = 20 units
        assert tr.time_to_complete(20.0, 10.0) == pytest.approx(10.0)
        # half the ramp area (5 units from rate 1 rising): solve the
        # quadratic 0.1*x^2 + x = 5 -> x = 5*(sqrt(3)-1)
        assert tr.time_to_complete(5.0, 10.0) == pytest.approx(
            5 * (3 ** 0.5 - 1))

    def test_spans_head_ramp_and_tail(self):
        tr = RampSpeed(1.0, 3.0, 10.0, 20.0)
        # 5 units head (5s) + 20 units ramp (10s) + 6 units tail (2s)
        assert tr.time_to_complete(31.0, 5.0) == pytest.approx(17.0)

    def test_downward_ramp(self):
        tr = RampSpeed(3.0, 1.0, 0.0, 10.0)
        assert tr.time_to_complete(20.0, 0.0) == pytest.approx(10.0)
        assert tr.rate(5.0) == pytest.approx(2.0)

    def test_equal_rates_degenerate_to_constant(self):
        tr = RampSpeed(2.0, 2.0, 1.0, 3.0)
        const = ConstantSpeed(2.0)
        for work, t0 in ((0.0, 0.0), (1.0, 0.5), (10.0, 2.0), (3.0, 9.0)):
            assert tr.time_to_complete(work, t0) == pytest.approx(
                const.time_to_complete(work, t0))

    @given(work=st.floats(0.0, 1e3), t0=st.floats(0.0, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_completion_inverts_the_rate_integral(self, work, t0):
        """integral of rate over [t0, t0+dt] == work (the trace's
        contract with the simulator)."""
        tr = RampSpeed(0.5, 4.0, 10.0, 30.0)
        dt = tr.time_to_complete(work, t0)
        # numerically integrate the rate over [t0, t0 + dt]
        n = 4000
        ts = [t0 + dt * (i + 0.5) / n for i in range(n)]
        integral = sum(tr.rate(t) for t in ts) * (dt / n)
        assert integral == pytest.approx(work, rel=1e-3, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            RampSpeed(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            RampSpeed(1.0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            RampSpeed(1.0, 2.0, 5.0, 5.0)   # empty window
        with pytest.raises(ValueError):
            RampSpeed(1.0, 2.0, -1.0, 5.0)  # negative start
        with pytest.raises(ValueError):
            RampSpeed(1.0, 2.0, 0.0, 1.0).time_to_complete(-1.0, 0.0)


class TestNetwork:
    def test_self_send_is_free(self):
        net = FlatTopology(latency=1.0, bandwidth=1.0)
        assert net.plan_send(0, 0, 10_000, now=5.0) == 5.0
        assert net.bytes_sent == 0

    def test_latency_plus_wire_time(self):
        net = FlatTopology(latency=2.0, bandwidth=100.0,
                           serialize_egress=False)
        assert net.plan_send(0, 1, 500, now=0.0) == pytest.approx(2.0 + 5.0)

    def test_egress_serialization(self):
        net = FlatTopology(latency=0.0, bandwidth=100.0, serialize_egress=True)
        t1 = net.plan_send(0, 1, 100, now=0.0)  # wire 1s -> arrives 1.0
        t2 = net.plan_send(0, 2, 100, now=0.0)  # waits for egress -> 2.0
        assert t1 == pytest.approx(1.0)
        assert t2 == pytest.approx(2.0)

    def test_different_sources_do_not_serialize(self):
        net = FlatTopology(latency=0.0, bandwidth=100.0, serialize_egress=True)
        t1 = net.plan_send(0, 1, 100, now=0.0)
        t2 = net.plan_send(1, 0, 100, now=0.0)
        assert t1 == t2 == pytest.approx(1.0)

    def test_stats_accumulate(self):
        net = FlatTopology()
        net.plan_send(0, 1, 100, now=0.0)
        net.plan_send(1, 0, 50, now=0.0)
        assert net.bytes_sent == 150
        assert net.messages_sent == 2
        net.reset_stats()
        assert net.bytes_sent == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FlatTopology(latency=-1.0)
        with pytest.raises(ValueError):
            FlatTopology(bandwidth=0.0)
        with pytest.raises(ValueError):
            FlatTopology().plan_send(0, 1, -5, now=0.0)


class TestSimCluster:
    def test_default_network_is_a_private_flat_topology(self):
        """Each cluster gets its own flat model, so one run's egress
        backlog never delays another's sends."""
        a, b = SimCluster(num_nodes=2), SimCluster(num_nodes=2)
        assert type(a.network) is FlatTopology
        assert a.network is not b.network
        first = a.network.plan_send(0, 1, 10_000_000, 0.0)
        assert b.network.plan_send(0, 1, 10_000_000, 0.0) == first
        fresh = FlatTopology()
        assert (a.network.latency, a.network.bandwidth) == (
            fresh.latency, fresh.bandwidth)

    def test_single_task_runs_for_work_over_rate(self):
        cluster = SimCluster(num_nodes=1, speeds=[ConstantSpeed(2.0)])
        fut = cluster.submit(0, work=10.0)
        end = cluster.run()
        assert end == pytest.approx(5.0)
        assert fut.is_ready()

    def test_action_result_lands_in_future(self):
        cluster = SimCluster(num_nodes=1)
        fut = cluster.submit(0, work=1.0, action=lambda: "payload")
        cluster.run()
        assert fut.get() == "payload"

    def test_action_exception_lands_in_future(self):
        cluster = SimCluster(num_nodes=1)

        def bad():
            raise RuntimeError("kernel failed")

        fut = cluster.submit(0, work=1.0, action=bad)
        cluster.run()
        with pytest.raises(RuntimeError, match="kernel failed"):
            fut.get()

    def test_single_core_serializes_tasks(self):
        cluster = SimCluster(num_nodes=1, cores_per_node=1)
        cluster.submit(0, work=3.0)
        cluster.submit(0, work=4.0)
        assert cluster.run() == pytest.approx(7.0)

    def test_two_cores_run_in_parallel(self):
        cluster = SimCluster(num_nodes=1, cores_per_node=2)
        cluster.submit(0, work=3.0)
        cluster.submit(0, work=4.0)
        assert cluster.run() == pytest.approx(4.0)

    def test_nodes_run_independently(self):
        cluster = SimCluster(num_nodes=2)
        cluster.submit(0, work=10.0)
        cluster.submit(1, work=2.0)
        assert cluster.run() == pytest.approx(10.0)

    def test_heterogeneous_speeds(self):
        cluster = SimCluster(num_nodes=2,
                             speeds=[ConstantSpeed(1.0), ConstantSpeed(4.0)])
        cluster.submit(0, work=8.0)
        cluster.submit(1, work=8.0)
        cluster.run()
        assert cluster.busy_time(0) == pytest.approx(8.0)
        assert cluster.busy_time(1) == pytest.approx(2.0)

    def test_dependency_delays_start(self):
        cluster = SimCluster(num_nodes=2)
        first = cluster.submit(0, work=5.0)
        second = cluster.submit(1, work=1.0, deps=[first])
        end = cluster.run()
        assert end == pytest.approx(6.0)
        assert second.is_ready()

    def test_message_delivery_time(self):
        net = FlatTopology(latency=1.0, bandwidth=100.0,
                           serialize_egress=False)
        cluster = SimCluster(num_nodes=2, network=net)
        msg = cluster.send(0, 1, nbytes=200, payload=[1, 2, 3])
        cluster.run()
        assert cluster.now == pytest.approx(3.0)
        assert msg.get() == [1, 2, 3]

    def test_task_waiting_on_message(self):
        net = FlatTopology(latency=2.0, bandwidth=1e9, serialize_egress=False)
        cluster = SimCluster(num_nodes=2, network=net)
        msg = cluster.send(0, 1, nbytes=0, payload="ghost")
        fut = cluster.submit(1, work=1.0, deps=[msg])
        end = cluster.run()
        assert end == pytest.approx(3.0)
        assert fut.is_ready()

    def test_busy_time_per_node(self):
        cluster = SimCluster(num_nodes=2)
        cluster.submit(0, work=4.0)
        cluster.submit(1, work=1.0)
        cluster.run()
        assert cluster.now == pytest.approx(4.0)
        assert cluster.busy_time(0) == pytest.approx(4.0)
        assert cluster.busy_time(1) == pytest.approx(1.0)

    def test_reset_counters_starts_new_window(self):
        cluster = SimCluster(num_nodes=1)
        cluster.submit(0, work=4.0)
        cluster.run()
        cluster.reset_counters()
        assert cluster.busy_time(0) == 0.0
        cluster.submit(0, work=2.0)
        cluster.run()
        assert cluster.busy_time(0) == pytest.approx(2.0)
        # busy for the whole window since the reset at t=4
        assert cluster.busy_time(0) == pytest.approx(cluster.now - 4.0)

    def test_reset_counters_with_in_flight_work_clips_the_window(self):
        """A balance-poll-style reset while a task is mid-execution:
        the new window must measure only post-reset busy time, not the
        task's whole span (the busy-window bug inflated eq-8 node power
        for exactly this case)."""
        cluster = SimCluster(num_nodes=2)
        cluster.submit(0, work=10.0)   # in flight across the poll
        cluster.submit(1, work=2.0)    # quiescent by the poll
        cluster.run(until=4.0)
        assert cluster.now == 4.0
        assert cluster.nodes[0].running  # genuinely mid-task
        cluster.reset_counters()
        assert cluster.busy_time(0) == 0.0
        cluster.run()
        # window: only the 6 busy seconds after the poll
        assert cluster.busy_time(0) == pytest.approx(6.0)
        assert cluster.busy_time(0) == pytest.approx(cluster.now - 4.0)
        # lifetime keeps the full span
        assert cluster.nodes[0].counter.total() == pytest.approx(10.0)
        assert cluster.busy_time(1) == 0.0

    def test_unknown_node_raises(self):
        cluster = SimCluster(num_nodes=1)
        with pytest.raises(SimulationError, match="unknown node"):
            cluster.submit(5, work=1.0)

    def test_busy_time_of_unknown_node_raises(self):
        cluster = SimCluster(num_nodes=2)
        with pytest.raises(SimulationError, match="unknown node"):
            cluster.busy_time(2)

    def test_busy_counters_registered_in_agas(self):
        cluster = SimCluster(num_nodes=3)
        assert cluster.agas.names() == [
            f"/counters/node{i}/busy_time" for i in range(3)]
        assert all(cluster.agas.resolve(f"/counters/node{i}/busy_time")
                   is node.counter for i, node in enumerate(cluster.nodes))

    def test_clusters_sharing_an_address_space_collide(self):
        """AGAS names are global: a second cluster on the same space
        would shadow the first one's counters, so it is refused."""
        agas = AddressSpace()
        SimCluster(num_nodes=2, agas=agas)
        with pytest.raises(AgasError, match="already registered"):
            SimCluster(num_nodes=1, agas=agas)

    def test_speed_list_length_checked(self):
        with pytest.raises(ValueError):
            SimCluster(num_nodes=2, speeds=[ConstantSpeed(1.0)])

    def test_stats_tracked(self):
        cluster = SimCluster(num_nodes=1)
        cluster.submit(0, work=2.0)
        cluster.submit(0, work=3.0)
        cluster.run()
        node = cluster.nodes[0]
        assert node.tasks_completed == 2
        assert node.work_completed == pytest.approx(5.0)

    def test_determinism_of_schedule(self):
        def run_once():
            cluster = SimCluster(num_nodes=3, cores_per_node=2)
            futs = []
            for i in range(20):
                futs.append(cluster.submit(i % 3, work=1.0 + (i % 7)))
            end = cluster.run()
            return end, cluster.busy_time(0), cluster.busy_time(1)

        assert run_once() == run_once()


class TestTaskFutures:
    """Task futures compose with callbacks and ``when_all`` on virtual
    time."""

    def test_submit_returns_a_pending_future(self):
        cluster = SimCluster(num_nodes=1)
        fut = cluster.submit(0, work=1.0, action=lambda: 3)
        assert type(fut) is Future
        assert not fut.is_ready()
        cluster.run()
        assert fut.get() == 3

    @pytest.mark.parametrize("wave", [True, False])
    def test_callback_runs_at_completion_time(self, wave):
        cluster = SimCluster(num_nodes=1, speeds=[ConstantSpeed(2.0)],
                             wave_batching=wave)
        seen = []
        for work in (2.0, 6.0):
            cluster.submit(0, work=work)._add_callback(
                lambda f: seen.append(cluster.now))
        cluster.run()
        assert seen == [pytest.approx(1.0), pytest.approx(4.0)]

    @pytest.mark.parametrize("wave", [True, False])
    def test_when_all_fires_at_last_completion(self, wave):
        cluster = SimCluster(num_nodes=2, wave_batching=wave)
        futs = [cluster.submit(0, work=3.0), cluster.submit(0, work=1.0),
                cluster.submit(1, work=2.0)]
        seen = []
        when_all(futs)._add_callback(lambda f: seen.append(cluster.now))
        cluster.run()
        assert seen == [pytest.approx(4.0)]

    def test_paper_listing1_on_the_cluster(self):
        """Listing 1's ``a+b``, ``c+d`` on two nodes, summed by a task
        that depends on both."""
        cluster = SimCluster(num_nodes=2)
        ab = cluster.submit(0, work=1.0, action=lambda: 1 + 2)
        cd = cluster.submit(1, work=2.0, action=lambda: 3 + 4)
        total = cluster.submit(0, work=1.0, deps=[ab, cd],
                               action=lambda: ab.get() + cd.get())
        assert cluster.run() == pytest.approx(3.0)
        assert total.get() == 10

    def test_many_small_tasks_complete(self):
        cluster = SimCluster(num_nodes=2, cores_per_node=2)
        futs = [cluster.submit(i % 2, work=1.0, action=lambda i=i: i)
                for i in range(200)]
        cluster.run()
        assert sum(f.get() for f in futs) == sum(range(200))
        assert cluster.busy_time(0) + cluster.busy_time(1) == \
            pytest.approx(200.0)
        assert cluster.now == pytest.approx(50.0)

    def test_invalid_num_nodes(self):
        with pytest.raises(ValueError, match="num_nodes must be >= 1"):
            SimCluster(num_nodes=0)

    def test_invalid_cores_per_node(self):
        with pytest.raises(ValueError, match="cores must be >= 1"):
            SimCluster(num_nodes=1, cores_per_node=0)


class TestDefaultRate:
    """``default_rate`` governs construction AND mid-run joiners.

    ``add_node(trace=None)`` used to hand every joiner a hard-coded
    ``ConstantSpeed(1.0)`` — on a service cluster running at 1e9
    flops/s the joiner was a billion times slow.
    """

    def test_construction_uses_default_rate(self):
        cluster = SimCluster(num_nodes=1, default_rate=4.0)
        cluster.submit(0, work=8.0)
        assert cluster.run() == pytest.approx(2.0)

    def test_joiner_inherits_default_rate(self):
        cluster = SimCluster(num_nodes=1, default_rate=4.0)
        nid = cluster.add_node()
        cluster.submit(nid, work=8.0)
        assert cluster.run() == pytest.approx(2.0)

    def test_joiner_inherits_default_rate_with_explicit_speeds(self):
        # explicit speeds don't change the joiner contract: trace=None
        # still means "the cluster default", not a bare 1.0
        cluster = SimCluster(num_nodes=1, speeds=[ConstantSpeed(2.0)],
                             default_rate=4.0)
        nid = cluster.add_node()
        cluster.submit(nid, work=8.0)
        assert cluster.run() == pytest.approx(2.0)

    def test_explicit_trace_still_wins(self):
        cluster = SimCluster(num_nodes=1, default_rate=4.0)
        nid = cluster.add_node(trace=ConstantSpeed(1.0))
        cluster.submit(nid, work=8.0)
        assert cluster.run() == pytest.approx(8.0)

    def test_default_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="default_rate"):
            SimCluster(num_nodes=1, default_rate=0.0)


class TestTimer:
    def test_timer_resolves_after_delay(self):
        cluster = SimCluster(num_nodes=1)
        fut = cluster.timer(2.5, payload="tick")
        cluster.run()
        assert cluster.now == pytest.approx(2.5)
        assert fut.get() == "tick"

    def test_zero_delay_immediate(self):
        cluster = SimCluster(num_nodes=1)
        fut = cluster.timer(0.0)
        assert fut.is_ready()

    def test_negative_delay_rejected(self):
        cluster = SimCluster(num_nodes=1)
        with pytest.raises(SimulationError):
            cluster.timer(-1.0)

    def test_task_gated_by_timer(self):
        cluster = SimCluster(num_nodes=1)
        t = cluster.timer(3.0)
        cluster.submit(0, work=1.0, deps=[t])
        assert cluster.run() == pytest.approx(4.0)


class TestTracesAtExactBreakpoints:
    """Edge cases the fault layer leans on: starting, stopping, and
    measuring exactly at a trace's breakpoint times must be consistent
    between ``rate``, ``time_to_complete``, and ``work_until`` (the
    straggle composition walks these boundaries exactly)."""

    PW = PiecewiseSpeed([5.0, 15.0], [2.0, 1.0, 3.0])
    RAMP = RampSpeed(1.0, 3.0, 10.0, 20.0)

    def test_piecewise_start_at_breakpoint_uses_next_segment(self):
        # rate at the breakpoint belongs to the segment that starts
        assert self.PW.rate(5.0) == 1.0
        assert self.PW.rate(15.0) == 3.0
        assert self.PW.time_to_complete(3.0, 5.0) == pytest.approx(3.0)
        assert self.PW.time_to_complete(9.0, 15.0) == pytest.approx(3.0)

    def test_piecewise_work_ending_exactly_at_breakpoint(self):
        # 10 units from t=0: exactly consumes [0,5) at rate 2
        assert self.PW.time_to_complete(10.0, 0.0) == pytest.approx(5.0)
        # and the integral of the closed interval agrees
        assert self.PW.work_until(0.0, 5.0) == pytest.approx(10.0)

    def test_piecewise_work_until_across_both_breakpoints(self):
        # [0,5): 10, [5,15): 10, [15,20]: 15
        assert self.PW.work_until(0.0, 20.0) == pytest.approx(35.0)
        assert self.PW.work_until(5.0, 15.0) == pytest.approx(10.0)
        assert self.PW.work_until(15.0, 15.0) == 0.0
        with pytest.raises(ValueError):
            self.PW.work_until(2.0, 1.0)

    def test_piecewise_zero_work_at_breakpoint(self):
        assert self.PW.time_to_complete(0.0, 5.0) == 0.0
        assert self.PW.time_to_complete(0.0, 15.0) == 0.0

    def test_ramp_start_exactly_at_t0_and_t1(self):
        # at t0: the ramp begins (rate 1, rising)
        assert self.RAMP.rate(10.0) == 1.0
        assert self.RAMP.time_to_complete(20.0, 10.0) == pytest.approx(10.0)
        # at t1: constant tail
        assert self.RAMP.rate(20.0) == 3.0
        assert self.RAMP.time_to_complete(9.0, 20.0) == pytest.approx(3.0)

    def test_ramp_work_ending_exactly_at_t0(self):
        # 10 units of flat head from t=0 end exactly at the ramp foot
        assert self.RAMP.time_to_complete(10.0, 0.0) == pytest.approx(10.0)
        assert self.RAMP.work_until(0.0, 10.0) == pytest.approx(10.0)

    def test_ramp_work_until_trapezoid(self):
        assert self.RAMP.work_until(10.0, 20.0) == pytest.approx(20.0)
        assert self.RAMP.work_until(0.0, 25.0) == pytest.approx(
            10.0 + 20.0 + 15.0)
        assert self.RAMP.work_until(15.0, 15.0) == 0.0
        with pytest.raises(ValueError):
            self.RAMP.work_until(5.0, 4.0)

    @given(a=st.floats(0.0, 30.0), b=st.floats(0.0, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_work_until_additive(self, a, b):
        lo, hi = sorted((a, b))
        mid = 0.5 * (lo + hi)
        for tr in (self.PW, self.RAMP, ConstantSpeed(2.5)):
            whole = tr.work_until(lo, hi)
            split = tr.work_until(lo, mid) + tr.work_until(mid, hi)
            assert whole == pytest.approx(split, rel=1e-12, abs=1e-12)

    @given(work=st.floats(0.0, 100.0), t0=st.floats(0.0, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_work_until_inverts_time_to_complete(self, work, t0):
        for tr in (self.PW, self.RAMP):
            dt = tr.time_to_complete(work, t0)
            assert tr.work_until(t0, t0 + dt) == pytest.approx(
                work, rel=1e-9, abs=1e-9)
