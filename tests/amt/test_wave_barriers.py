"""Barrier-aware wave batching and the task-group fast path.

The wave fast path historically had to be switched off whenever
independent jobs' ``when_all`` barriers interleaved on one node:
a batched wave resolved its member futures only when the whole wave
ended, so a barrier over an early member fired late.  These tests pin
the barrier-aware machinery that lifted that restriction:

* wave formation stops at the boundary of a second barrier group, so
  interleaved-job waves are simply not formed;
* a wave is unwound mid-flight the moment any member future gains a
  subscriber (the ``_wave`` trigger), so late subscriptions still see
  exact per-task resolution times;
* ``submit_group`` / ``send_group`` batch a whole cross-node group
  into one event while producing bit-identical telemetry, busy time,
  and barrier firing times to the per-event path;
* a mid-horizon ``run(until=...)`` cut materializes in-flight groups
  back into per-task form with no observable difference.

Each scenario runs once with batching on and once off and asserts the
observable streams are equal.
"""

import numpy as np

from repro.amt.cluster import SimCluster
from repro.amt.future import when_all


def _two_clusters(n, **kw):
    return (SimCluster(n, wave_batching=True, **kw),
            SimCluster(n, wave_batching=False, **kw))


class TestBarrierAwareWaves:
    def test_single_barrier_run_still_batches(self):
        """One barrier over the whole backlog (the solver's shape):
        the wave fast path must still collapse it to O(1) events."""
        results = {}
        for mode in (True, False):
            c = SimCluster(1, wave_batching=mode)
            futs = [c.submit(0, 10.0) for _ in range(100)]
            fired = []
            when_all(futs)._add_callback(lambda _f, c=c: fired.append(c.now))
            c.run()
            results[mode] = fired
            if mode:
                assert c.sim.events_processed <= 3
        assert results[True] == results[False] == [1000.0]

    def test_interleaved_job_barriers_fire_at_their_own_times(self):
        """Two jobs' barriers interleave on one node: each must fire
        when its own tasks are done, not when the backlog drains."""
        results = {}
        for mode in (True, False):
            c = SimCluster(1, wave_batching=mode)
            a = [c.submit(0, 10.0), c.submit(0, 10.0)]
            b = [c.submit(0, 10.0), c.submit(0, 10.0)]
            fired = {}
            when_all(a)._add_callback(
                lambda _f, c=c: fired.setdefault("A", c.now))
            when_all(b)._add_callback(
                lambda _f, c=c: fired.setdefault("B", c.now))
            c.run()
            results[mode] = fired
        # submission order on the FIFO node: a0 a1 b0 b1
        assert results[True] == results[False] == {"A": 20.0, "B": 40.0}

    def test_mid_wave_subscription_unwinds_the_wave(self):
        """Subscribing to a member future while its wave is in flight
        must observe the member's exact per-task completion time."""
        results = {}
        for mode in (True, False):
            c = SimCluster(1, wave_batching=mode)
            futs = [c.submit(0, 10.0) for _ in range(5)]
            seen = []
            # at t=25 (mid-wave), subscribe to task 3 (finishes at 40)
            c.timer(25.0)._add_callback(
                lambda _f: futs[3]._add_callback(
                    lambda _g: seen.append(c.now)))
            c.run()
            results[mode] = seen
        assert results[True] == results[False] == [40.0]


class TestTaskGroups:
    def test_group_chain_matches_per_event_path(self):
        """A 3-step submit_group/send_group chain over 3 nodes: same
        barrier times, same busy time, far fewer events."""
        logs = {}
        events = {}
        for mode in (True, False):
            c = SimCluster(3, wave_batching=mode)
            log = []

            def step(k, c=c, log=log):
                if k == 3:
                    return
                fut = c.submit_group([10.0, 20.0, 15.0])
                fut._add_callback(lambda _f: (
                    log.append((k, c.now)),
                    send(k)))

            def send(k, c=c):
                fut = c.send_group([(0, 1, 800), (1, 2, 800)])
                fut._add_callback(lambda _f: step(k + 1))

            step(0)
            c.run()
            log.append(("busy", [round(c.busy_time(n), 9)
                                 for n in range(3)]))
            logs[mode] = log
            events[mode] = c.sim.events_processed
        assert logs[True] == logs[False]
        assert events[True] < events[False]

    def test_group_callback_mode_matches_future_mode(self):
        """submit_group(callback=...) fires exactly where the barrier
        future would have resolved."""
        fired = {}
        for label, use_cb in (("cb", True), ("fut", False)):
            c = SimCluster(2, wave_batching=True)
            times = []
            if use_cb:
                c.submit_group([10.0, 30.0],
                               callback=lambda: times.append(c.now))
            else:
                c.submit_group([10.0, 30.0])._add_callback(
                    lambda _f: times.append(c.now))
            c.run()
            fired[label] = times
        assert fired["cb"] == fired["fut"] == [30.0]

    def test_mid_horizon_cut_and_resume(self):
        """run(until=) through in-flight groups, then resume: the
        materialized continuation must finish identically."""
        results = {}
        for mode in (True, False):
            c = SimCluster(1, wave_batching=mode)
            log = []

            def chain(k, c=c, log=log):
                if k == 4:
                    return
                c.submit_group([20.0])._add_callback(
                    lambda _f: (log.append((k, c.now)), chain(k + 1)))

            chain(0)
            c.run(until=25.0)
            mid_busy = round(c.busy_time(0), 9)
            mid_now = c.now
            c.run()
            results[mode] = (log, mid_busy, mid_now,
                             round(c.busy_time(0), 9))
        assert results[True] == results[False]
        assert results[True][0] == [(0, 20.0), (1, 40.0), (2, 60.0),
                                    (3, 80.0)]

    def test_group_falls_back_on_ineligible_node(self):
        """Multi-core nodes take the classic path but the barrier
        semantics are unchanged."""
        c = SimCluster(2, cores_per_node=2, wave_batching=True)
        times = []
        c.submit_group([10.0, 30.0])._add_callback(
            lambda _f: times.append(c.now))
        c.run()
        assert times == [30.0]

    def test_counters_flush_through_busy_time_reads(self):
        """busy_time() mid-run sees the completed prefix of pending
        group entries without materializing them."""
        c = SimCluster(1, wave_batching=True)
        c.submit_group([10.0])
        c.submit_group([10.0])
        c.run(until=15.0)
        assert c.busy_time(0) == 10.0
        c.run()
        assert c.busy_time(0) == 20.0

    def test_group_with_repeated_targets_matches_per_event_path(self):
        """A group may name one node several times, so it can hold more
        tasks than the fleet has nodes: those tasks queue FIFO on the
        node in both modes."""
        results = {}
        for mode in (True, False):
            c = SimCluster(2, wave_batching=mode)
            times = []
            c.submit_group([1.0, 2.0, 3.0], nodes=[0, 0, 1],
                           callback=lambda c=c: times.append(c.now))
            c.run()
            results[mode] = (times, [c.busy_time(n) for n in range(2)])
        assert results[True] == results[False] == ([3.0], [3.0, 3.0])

    def test_random_repeated_target_groups_match_per_event_path(self):
        """Chains of groups with random, repeating targets: equal
        callback times, busy times and task counts in both modes."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            groups = [(rng.uniform(0.5, 4.0, size=k).tolist(),
                       rng.integers(0, n, size=k).tolist())
                      for k in rng.integers(1, 2 * n + 3, size=4)]
            results = {}
            for mode in (True, False):
                c = SimCluster(n, wave_batching=mode)
                log = []

                def step(k, c=c, log=log):
                    if k == len(groups):
                        return
                    works, nodes = groups[k]
                    c.submit_group(works, nodes=nodes, callback=lambda: (
                        log.append((k, c.now)), step(k + 1)))

                step(0)
                # a second, independent chain interleaves on the nodes
                works, nodes = groups[0]
                c.submit_group(works, nodes=nodes,
                               callback=lambda c=c, log=log: log.append(
                                   ("side", c.now)))
                c.run()
                results[mode] = (
                    log, [c.busy_time(i) for i in range(n)],
                    [node.tasks_completed for node in c.nodes])
            assert results[True] == results[False]
