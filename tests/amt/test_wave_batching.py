"""Wave batching and batched sends: exact equivalence to the seed path.

Wave batching (``SimCluster.wave_batching``)
retires a run of homogeneous queued tasks with one DES event instead of
one per task.  Everything the solver can observe — makespans, per-node
busy time, task/work counters, failure orphans, ``run(until=...)``
boundary state — must be bit-identical to the per-event path; only the
physical event count may differ.  These tests run each scenario under
both modes and compare.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.cluster import (ConstantSpeed, PiecewiseSpeed, SimCluster,
                               StraggleSpeed)
from repro.amt.future import when_all
from repro.amt.topology import (FlatTopology, HierarchicalTopology,
                                SwitchedTopology)

WORKS = [1e-4 * (1 + (k % 7)) for k in range(64)]


def _observe(cluster):
    """Everything solver-visible about a drained cluster."""
    return {
        "now": cluster.now,
        "busy": [n.busy_time() for n in cluster.nodes],
        "tasks": [n.tasks_completed for n in cluster.nodes],
        "work": [n.work_completed for n in cluster.nodes],
    }


def _paired(build_and_run):
    """Run a scenario with waves off and on; return both observations."""
    out = []
    for wave in (False, True):
        cluster = SimCluster(4, cores_per_node=1, wave_batching=wave)
        build_and_run(cluster)
        out.append((_observe(cluster), cluster.sim.events_processed))
    (off, n_off), (on, n_on) = out
    return off, on, n_off, n_on


class TestWaveEquivalence:
    def test_homogeneous_backlog_fewer_events_same_schedule(self):
        def scenario(cluster):
            for n in range(4):
                for w in WORKS:
                    cluster.submit(n, work=w)
            cluster.run()

        off, on, n_off, n_on = _paired(scenario)
        assert on == off
        assert n_on < n_off  # the whole point: one event per wave

    def test_barrier_time_is_bitwise_identical(self):
        """The solver's observation point is the step barrier — the
        when_all over every task future of the step.  (Individual
        wave-member futures resolve at the wave's *end*, a documented
        deviation that is invisible through the barrier.)  The barrier
        must fire at the identical virtual instant in both modes."""
        from repro.amt.future import when_all

        def run(wave):
            cluster = SimCluster(2, wave_batching=wave)
            futs = [cluster.submit(k % 2, work=w)
                    for k, w in enumerate(WORKS)]
            stamp = []
            when_all(futs)._add_callback(
                lambda _f: stamp.append(cluster.now))
            cluster.run()
            return stamp, cluster.now

        assert run(True) == run(False)

    def test_actions_break_the_wave_prefix(self):
        """Tasks with actions can reshape the schedule mid-run, so they
        never batch — and results still match the per-event path."""
        def scenario(cluster):
            seen = []
            for k, w in enumerate(WORKS):
                if k % 5 == 0:
                    cluster.submit(0, work=w,
                                   action=lambda k=k: seen.append(k))
                else:
                    cluster.submit(0, work=w)
            cluster.run()

        off, on, _, _ = _paired(scenario)
        assert on == off

    def test_long_wave_uses_vectorized_prefix_sum(self):
        """>= 32 tasks goes through np.add.accumulate; must still match
        the sequential per-event float chain bit for bit."""
        works = [1e-5 * (1 + ((k * 13) % 11)) for k in range(500)]

        def scenario(cluster):
            for w in works:
                cluster.submit(0, work=w)
            cluster.run()

        off, on, n_off, n_on = _paired(scenario)
        assert on == off
        assert n_on < n_off

    def test_multicore_nodes_never_batch(self):
        for wave in (False, True):
            cluster = SimCluster(1, cores_per_node=4, wave_batching=wave)
            for w in WORKS:
                cluster.submit(0, work=w)
            cluster.run()
            if wave:
                assert _observe(cluster) == off
            else:
                off = _observe(cluster)

    def test_nonconstant_speed_never_batches(self):
        trace = PiecewiseSpeed([0.002, 0.004], [1.0, 0.25, 2.0])
        out = []
        for wave in (False, True):
            cluster = SimCluster(1, speeds=[trace], wave_batching=wave)
            for w in WORKS:
                cluster.submit(0, work=w)
            cluster.run()
            out.append(_observe(cluster))
        assert out[0] == out[1]

    def test_straggle_wrapped_constant_never_batches(self):
        # StraggleSpeed wraps ConstantSpeed but is NOT ConstantSpeed:
        # the type check must keep it off the fast path
        trace = StraggleSpeed(ConstantSpeed(1.0), [(0.001, 0.003, 0.5)])
        out = []
        for wave in (False, True):
            cluster = SimCluster(1, speeds=[trace], wave_batching=wave)
            for w in WORKS:
                cluster.submit(0, work=w)
            cluster.run()
            out.append(_observe(cluster))
        assert out[0] == out[1]


class TestWaveInterruption:
    def _loaded(self, wave):
        cluster = SimCluster(2, wave_batching=wave)
        for w in WORKS:
            cluster.submit(0, work=w)
        cluster.submit(1, work=1.0)  # keeps node 1 alive as survivor
        return cluster

    @pytest.mark.parametrize("until", [1.5e-4, 12.3e-4, 0.5])
    def test_run_until_materializes_mid_wave(self, until):
        """Stopping inside a wave must leave per-task state identical to
        the per-event path: same completed prefix, same busy time, and
        the same continuation when the run resumes."""
        states = []
        for wave in (False, True):
            cluster = self._loaded(wave)
            cluster.run(until=until)
            mid = _observe(cluster)
            cluster.run()
            states.append((mid, _observe(cluster)))
        assert states[0] == states[1]

    @pytest.mark.parametrize("until", [1.5e-4, 12.3e-4])
    def test_fail_node_mid_wave(self, until):
        """Failure inside a wave: completed prefix keeps its results,
        the in-flight task's busy time is truncated at the failure, and
        the orphan list matches the per-event path."""
        outcomes = []
        for wave in (False, True):
            cluster = self._loaded(wave)
            cluster.run(until=until)
            orphans = cluster.fail_node(0)
            outcomes.append(
                ([t.work for t in orphans],
                 [t.future.is_ready() for t in orphans],
                 _observe(cluster)))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("wave", [False, True])
    def test_run_until_past_drained_queue_lands_on_until(self, wave):
        """``run(until=...)`` beyond the last event advances the clock
        to ``until`` — with and without an in-flight wave to
        materialize — so busy-fraction windows measured against ``now``
        span the full requested window."""
        cluster = self._loaded(wave)
        cluster.run(until=2.0)  # all work (incl. node 1's 1s task) done
        assert cluster.now == 2.0
        assert all(not n.pending for n in cluster.nodes)
        assert sum(n.tasks_completed for n in cluster.nodes) == len(WORKS) + 1
        # the window now covers the idle tail too
        assert cluster.busy_time(0) < cluster.now * cluster.nodes[0].cores

    def test_orphans_resubmit_after_mid_wave_failure(self):
        cluster = self._loaded(True)
        cluster.run(until=5e-4)
        orphans = cluster.fail_node(0)
        for task in orphans:
            cluster.resubmit(task, 1)
        cluster.run()
        assert all(t.future.is_ready() for t in orphans)
        done = sum(n.tasks_completed for n in cluster.nodes)
        assert done == len(WORKS) + 1


class TestSendMany:
    def test_matches_individual_sends(self):
        msgs = [((i * 7) % 4, (i * 13) % 4, 1024 + 64 * i)
                for i in range(40)]

        def run(batched):
            cluster = SimCluster(4)
            stamps = []
            if batched:
                futs = cluster.send_many([m for m in msgs])
            else:
                futs = [cluster.send(s, d, b) for s, d, b in msgs]
            for fut in futs:
                fut._add_callback(lambda _f: stamps.append(cluster.now))
            cluster.run()
            net = cluster.network
            return (stamps, cluster.now, net.bytes_sent, net.messages_sent,
                    net.bytes_by_class)

        assert run(True) == run(False)

    def test_self_sends_resolve_immediately(self):
        cluster = SimCluster(2)
        futs = cluster.send_many([(0, 0, 4096), (1, 1, 4096)])
        assert all(f.is_ready() for f in futs)
        # loopback is not NIC traffic
        assert cluster.network.bytes_sent == 0

    def test_unknown_node_rejected(self):
        from repro.amt.des import SimulationError
        cluster = SimCluster(2)
        with pytest.raises(SimulationError, match="unknown node"):
            cluster.send_many([(0, 5, 100)])
        with pytest.raises(SimulationError, match="unknown node"):
            cluster.send_many([(-1, 0, 100)])


#: Topologies whose byte accounting differs: one route class, a rack
#: switch, and racks behind a WAN link.
_TOPOLOGIES = {
    "flat": FlatTopology,
    "switched": lambda: SwitchedTopology(rack_size=2),
    "hier-wan": lambda: HierarchicalTopology(
        racks=(0, 0, 1, 1), join_rack=2, wan_racks=(1,),
        wan_latency=1e-3, wan_bandwidth=1e6),
}

_MESSAGES = [((i * 7) % 4, (i * 13) % 4, 512 + 32 * i) for i in range(24)]


class TestSendPathAccounting:
    """The topology is the one record of bytes on the wire: every send
    path charges it alike."""

    @pytest.mark.parametrize("wave", [False, True])
    @pytest.mark.parametrize("topology", sorted(_TOPOLOGIES))
    def test_every_send_path_charges_the_topology_alike(self, topology,
                                                        wave):
        seen = []
        for path in ("send", "send_many", "send_group"):
            cluster = SimCluster(4, network=_TOPOLOGIES[topology](),
                                 wave_batching=wave)
            if path == "send":
                for src, dst, nbytes in _MESSAGES:
                    cluster.send(src, dst, nbytes)
            else:
                getattr(cluster, path)(_MESSAGES)
            cluster.run()
            net = cluster.network
            seen.append((cluster.now, net.bytes_sent, net.messages_sent,
                         net.bytes_by_class))
        assert seen[0] == seen[1] == seen[2]
        loopback = sum(b for s, d, b in _MESSAGES if s == d)
        assert seen[0][1] == sum(b for _, _, b in _MESSAGES) - loopback

    @pytest.mark.parametrize("dst", [0, 1], ids=["loopback", "remote"])
    @pytest.mark.parametrize("path", ["send", "send_many", "send_group"])
    def test_negative_bytes_rejected(self, path, dst):
        cluster = SimCluster(2)
        with pytest.raises(ValueError, match="nbytes"):
            if path == "send":
                cluster.send(0, dst, -1)
            else:
                getattr(cluster, path)([(0, dst, -1)])

    @pytest.mark.parametrize("wave", [False, True])
    def test_loopback_group_resolves_at_once_and_charges_nothing(self, wave):
        cluster = SimCluster(2, wave_batching=wave)
        fut = cluster.send_group([(0, 0, 4096), (1, 1, 4096)])
        assert fut.is_ready()
        assert cluster.network.bytes_sent == 0
        assert cluster.network.messages_sent == 0


#: consumer runs as the step plan replays them: each consumer SD's
#: messages share its owner as destination.  Few sources and sizes make
#: arrival times tie across consumers; a run whose sources all equal its
#: destination (or zero bytes on a zero-latency link) arrives at once
_runs = st.lists(
    st.tuples(st.integers(0, 3),
              st.lists(st.tuples(st.integers(0, 3),
                                 st.sampled_from([0, 512, 1024])),
                       min_size=1, max_size=4)),
    max_size=12)

_PARITY_TOPOLOGIES = dict(_TOPOLOGIES,
                          zero_latency=lambda: FlatTopology(latency=0.0))


class TestConsumerGroupParity:
    """One ``send_group`` per consumer run fires each consumer when the
    barrier over its individual deliveries would, in the same order."""

    @staticmethod
    def _fired(topology, runs, grouped):
        cluster = SimCluster(4, network=_PARITY_TOPOLOGIES[topology]())
        fired = []

        def consume(k):
            # a real consumer reacts by scheduling work: that event's
            # seq must land where the per-message path would put it
            cluster.timer(1e-6)._add_callback(
                lambda _f: fired.append(("work", k, cluster.now)))
            fired.append(("ghosts", k, cluster.now))

        for k, (dst, msgs) in enumerate(runs):
            run = [(src, dst, nbytes) for src, nbytes in msgs]
            fut = (cluster.send_group(run) if grouped
                   else when_all(cluster.send_many(run)))
            fut._add_callback(lambda _f, k=k: consume(k))
        cluster.run()
        net = cluster.network
        return fired, (cluster.now, net.bytes_sent, net.messages_sent,
                       net.bytes_by_class)

    @pytest.mark.parametrize("topology", sorted(_PARITY_TOPOLOGIES))
    @given(runs=_runs)
    @settings(max_examples=60, deadline=None)
    def test_group_per_consumer_matches_barrier_over_sends(self, topology,
                                                           runs):
        assert (self._fired(topology, runs, grouped=True)
                == self._fired(topology, runs, grouped=False))
