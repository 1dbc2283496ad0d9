"""Deferred runs: batched completions are indistinguishable from per-event.

Runs (a prefix of one node's ready queue) and groups (``submit_group``)
defer task completions into pending entries retired by one DES event.
Whatever a caller can observe — busy reads at any event priority,
failure orphans, task/work totals, ``run(until=...)`` cut state and the
resolution time of every observed future — must match the per-event
path (``SimCluster(wave_batching=False)``).  The edge this file pins
hardest is an entry finishing *exactly* at the reading instant: it is
done only for readers that run after same-time completions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.cluster import SimCluster
from repro.amt.future import when_all


class TestDoneRule:
    def test_group_entry_finishing_at_failure_instant_is_orphaned(self):
        """A failure (priority -1) at an entry's exact finish fires
        before that instant's completions: the task is in flight, so it
        is orphaned and its group's barrier never fires."""
        outcomes = []
        for batching in (True, False):
            cluster = SimCluster(2, wave_batching=batching)
            orphans = []
            cluster.sim.schedule(
                1.0, lambda c=cluster: orphans.extend(
                    t.work for t in c.fail_node(0)), priority=-1)
            fired = []
            cluster.submit_group([1.0, 1.0])._add_callback(
                lambda _f, c=cluster: fired.append(c.now))
            cluster.submit_group([0.5, 0.5])
            cluster.run()
            outcomes.append((orphans, cluster.nodes[0].tasks_completed,
                             fired))
        assert outcomes[0] == outcomes[1] == ([1.0, 0.5], 0, [])

    @pytest.mark.parametrize("priority", [-1, 0, 2])
    def test_busy_read_at_exact_finish_follows_event_priority(self,
                                                              priority):
        """Only a reader ranked after same-time completions (priority
        above 1) sees an entry that finishes at the reading instant."""
        values = []
        for batching in (True, False):
            cluster = SimCluster(1, wave_batching=batching)
            got = []
            cluster.sim.schedule(
                1.0, lambda c=cluster: got.append(c.busy_time(0)),
                priority=priority)
            cluster.submit_group([1.0])
            cluster.run()
            values.append(got[0])
        assert values[0] == values[1] == (1.0 if priority > 1 else 0.0)

    def test_barrier_sees_only_its_own_same_instant_entries(self):
        """A group's event retires its own entries (and whatever queues
        ahead of them) but not a zero-work successor finishing at the
        same instant: per-event, that successor only starts when the
        group's task completes, so it completes after the barrier."""
        seen = []
        for batching in (True, False):
            cluster = SimCluster(1, wave_batching=batching)
            node = cluster.nodes[0]
            got = []
            cluster.submit_group([1.0])._add_callback(
                lambda _f, c=cluster, n=node: got.append(
                    (c.busy_time(0), n.tasks_completed)))
            cluster.submit_group([0.0])
            cluster.run()
            seen.append((got, node.tasks_completed))
        assert seen[0] == seen[1] == ([(1.0, 1)], 2)

    def test_busy_read_mid_run_is_exact(self):
        """A run's completed members count in busy reads while the run
        is still in flight (they used to stay invisible until its end)."""
        values = []
        for batching in (True, False):
            cluster = SimCluster(1, wave_batching=batching)
            when_all([cluster.submit(0, 1.0) for _ in range(6)])
            got = []
            for t in (0.5, 2.0, 3.5):
                cluster.sim.schedule(
                    t, lambda c=cluster: got.append(
                        (c.busy_time(0), c.nodes[0].tasks_completed)),
                    priority=0)
            cluster.run()
            values.append(got)
        assert values[0] == values[1] == [(0.0, 0), (1.0, 1), (3.0, 3)]


class TestRunsUnderMixing:
    def test_task_ready_mid_run_waits_behind_it(self):
        """A dependent task that becomes ready mid-run queues behind the
        run instead of reverting it: same schedule, one event for the
        run's six completions."""
        results = {}
        for batching in (True, False):
            cluster = SimCluster(2, wave_batching=batching)
            when_all([cluster.submit(0, 1.0) for _ in range(6)])
            gate = cluster.submit(1, 2.5)
            late = cluster.submit(0, 1.0, deps=[gate])
            stamps = []
            late._add_callback(lambda _f, c=cluster: stamps.append(c.now))
            cluster.run()
            results[batching] = (stamps, cluster.busy_time(0),
                                 cluster.sim.events_processed)
        assert results[True][:2] == results[False][:2] == ([7.0], 7.0)
        assert results[True][2] < results[False][2]

    @pytest.mark.parametrize("queued", [1, 2])
    def test_group_from_completion_callback_queues_behind_ready(self,
                                                                queued):
        """A completion frees the core before it re-dispatches: a group
        submitted from the completion's callback must not jump the node's
        queued ready tasks (one core would run two tasks at once)."""
        results = []
        for batching in (True, False):
            cluster = SimCluster(1, wave_batching=batching)
            stamps = []
            first = cluster.submit(0, 1.0)
            rest = [cluster.submit(0, 1.0) for _ in range(queued)]
            first._add_callback(
                lambda _f, c=cluster: c.submit_group(
                    [1.0], nodes=[0])._add_callback(
                        lambda _g: stamps.append(("group", c.now))))
            for k, fut in enumerate(rest):
                fut._add_callback(
                    lambda _f, c=cluster, k=k: stamps.append((k, c.now)))
            cluster.run()
            node = cluster.nodes[0]
            results.append((stamps, node.tasks_completed, cluster.now,
                            cluster.busy_time(0)))
        assert results[0] == results[1]
        assert results[0][0][-1] == ("group", 2.0 + queued)

    def test_group_from_run_member_callback_queues_behind_ready(self):
        """Same, when the core is freed by a run's end: the tasks left
        in the ready queue behind the run still go first."""
        results = []
        for batching in (True, False):
            cluster = SimCluster(1, wave_batching=batching)
            stamps = []
            cluster.submit(0, 1.0)
            run = [cluster.submit(0, 1.0) for _ in range(2)]
            cluster.submit(0, 1.0, action=lambda: None)
            tail = cluster.submit(0, 1.0)
            when_all(run)._add_callback(
                lambda _f, c=cluster: c.submit_group(
                    [1.0], nodes=[0])._add_callback(
                        lambda _g: stamps.append(("group", c.now))))
            tail._add_callback(
                lambda _f, c=cluster: stamps.append(("tail", c.now)))
            cluster.run()
            results.append((stamps, cluster.nodes[0].tasks_completed,
                            cluster.busy_time(0)))
        assert results[0] == results[1] == (
            [("tail", 5.0), ("group", 6.0)], 6, 6.0)

    def test_fault_solver_keeps_batching(self):
        """Fault-injecting runs no longer opt out of batching."""
        from repro.experiments import build
        from repro.experiments.runner import build_solver
        solver = build_solver(build("fault_recovery"))
        assert solver.cluster.wave_batching


# -- batched == per-event over random operation sequences -------------------

NUM_NODES = 3
#: dyadic times and works: finishes land exactly on operation instants
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
WORKS = st.sampled_from([0.25, 0.5, 1.0])
PRIORITIES = st.sampled_from([-1, 0, 2])
NODES = st.integers(0, NUM_NODES - 1)

OPS = st.one_of(
    st.tuples(st.just("submit"), TIMES, PRIORITIES, NODES,
              st.lists(WORKS, min_size=1, max_size=5), st.booleans()),
    st.tuples(st.just("group"), TIMES, PRIORITIES,
              st.lists(WORKS, min_size=1, max_size=NUM_NODES)),
    st.tuples(st.just("fail"), TIMES, NODES),
    st.tuples(st.just("read"), TIMES, PRIORITIES, NODES),
    st.tuples(st.just("reset"), TIMES, PRIORITIES),
    st.tuples(st.just("late"), TIMES, PRIORITIES, st.integers(0, 63)),
    st.tuples(st.just("chain"), TIMES, PRIORITIES, st.integers(0, 63),
              st.lists(WORKS, min_size=1, max_size=NUM_NODES)),
)


def _replay(ops, cuts, batching):
    """Drive one cluster through ``ops``; return everything observable.

    Operations run as DES events at their own (time, priority), never at
    the completions' priority 1, so both paths order them identically.
    At most one task waits on a dependency: two dependents released at
    one instant onto one node would queue in completion-event order,
    which neither path pins.
    """
    cluster = SimCluster(NUM_NODES, wave_batching=batching)
    futures = []      # every task future, in submission order
    log = []          # operation-ordered observations
    resolved = {}     # observed future -> resolution time

    def live(node):
        if cluster.nodes[node].alive:
            return node
        return cluster.active_node_ids()[0]

    def observe(key, fut):
        fut._add_callback(
            lambda _f: resolved.setdefault(key, cluster.now))

    def group(key, works):
        ids = cluster.active_node_ids()[:len(works)]
        observe(key, cluster.submit_group(works[:len(ids)], nodes=ids))

    cluster.orphan_handler = lambda task: cluster.resubmit(task, live(0))
    used_dep = False
    for i, op in enumerate(ops):
        kind, t = op[0], op[1]
        if kind == "submit":
            _, _, prio, node, works, with_dep = op
            dep = with_dep and not used_dep and bool(futures)
            used_dep = used_dep or dep

            def act(i=i, node=node, works=works, dep=dep):
                deps = [futures[-1]] if dep else []
                futs = [cluster.submit(live(node), w, deps=deps)
                        for w in works]
                futures.extend(futs)
                observe(("submit", i), when_all(futs))
        elif kind == "group":
            _, _, prio, works = op

            def act(i=i, works=works):
                group(("group", i), works)
        elif kind == "fail":
            prio = -1

            def act(node=op[2]):
                if (not cluster.nodes[node].alive
                        or len(cluster.active_node_ids()) < 2):
                    return
                orphans = cluster.fail_node(node)
                log.append(("orphans", node, [o.work for o in orphans]))
                for task in orphans:
                    cluster.resubmit(task, live(0))
        elif kind == "read":
            _, _, prio, node = op

            def act(node=node, prio=prio):
                log.append(("busy", cluster.now, prio, node,
                            cluster.busy_time(node)))
        elif kind == "reset":
            prio = op[2]

            def act():
                cluster.reset_counters()
                log.append(("reset", cluster.now))
        elif kind == "late":
            _, _, prio, idx = op

            def act(i=i, idx=idx):
                if futures:
                    observe(("late", i), futures[idx % len(futures)])
        else:
            # a group submitted from a task's completion callback, while
            # the task's node may still hold queued ready tasks
            _, _, prio, idx, works = op

            def act(i=i, idx=idx, works=works):
                if futures:
                    futures[idx % len(futures)]._add_callback(
                        lambda _f: group(("chain", i), works))
        cluster.sim.schedule(t, act, priority=prio)

    def snapshot():
        return (cluster.now,
                [n.tasks_completed for n in cluster.nodes],
                [n.work_completed for n in cluster.nodes],
                [f.is_ready() for f in futures])

    cut_states = []
    for cut in cuts:
        cluster.run(until=cut)
        cut_states.append(snapshot())
    cluster.run()
    busy = [cluster.busy_time(n) for n in range(NUM_NODES)]
    return log, resolved, cut_states, snapshot(), busy


@given(ops=st.lists(OPS, min_size=1, max_size=12),
       cuts=st.lists(st.sampled_from([0.5, 1.0, 1.25, 2.0, 2.75]),
                     max_size=3, unique=True).map(sorted))
@settings(max_examples=300, deadline=None)
def test_batched_matches_per_event(ops, cuts):
    assert _replay(ops, cuts, True) == _replay(ops, cuts, False)
