"""Incremental busy-counter polling.

The balancer's end-of-step measurement used to sweep ``busy_time(n)``
over every node; the cursor re-reads only nodes whose ``busy_marks``
moved (or that still have pending work) since the last poll.  It must
produce records bit-identical to the sweep — the cursor is a pure
caching layer over the same windowed busy-time values — pinned on the
two curated scenarios that stress the paths a stale cursor would
corrupt: ``hetero_drift`` (balances every few steps, resets counters)
and ``fault_recovery`` (mid-run node death, evacuation, requeue).
"""

import pytest

from repro.amt.cluster import BusyCursor, SimCluster
from repro.experiments import build, run_scenario
from repro.solver.distributed import DistributedSolver

SCENARIOS = ("hetero_drift", "fault_recovery")


def _sweep(solver):
    """The parity oracle: read every node's busy counter afresh."""
    return [solver.cluster.busy_time(n)
            for n in range(len(solver.cluster.nodes))]


class TestPollModeParity:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_sweep_and_cursor_records_agree(self, monkeypatch, scenario):
        spec = build(scenario)
        cursed = run_scenario(spec)
        monkeypatch.setattr(DistributedSolver, "_poll_busy", _sweep)
        swept = run_scenario(spec)
        assert swept.to_dict() == cursed.to_dict()


class TestCursorSemantics:
    def drained_cluster(self, work=(3e3, 5e3)):
        cluster = SimCluster(len(work))
        for n, w in enumerate(work):
            cluster.submit(n, w)
        cluster.run()
        return cluster

    def test_poll_matches_sweep_and_returns_a_copy(self):
        cluster = self.drained_cluster()
        cursor = BusyCursor()
        polled = cluster.poll_busy(cursor)
        swept = [cluster.busy_time(n) for n in range(2)]
        assert polled == swept
        polled[0] = -1.0  # caller-owned list: the cache must not alias
        assert cluster.poll_busy(cursor) == swept

    def test_idle_nodes_are_served_from_the_cache(self):
        cluster = self.drained_cluster()
        cursor = BusyCursor()
        cluster.poll_busy(cursor)
        marks = list(cursor.marks)
        # nothing ran since: a second poll must not advance any mark
        cluster.poll_busy(cursor)
        assert list(cursor.marks) == marks
        # new completions bump the mark and refresh the value
        cluster.submit(0, 7e3)
        cluster.run()
        polled = cluster.poll_busy(cursor)
        assert cursor.marks[0] > marks[0]
        assert polled[0] == cluster.busy_time(0)

    def test_reset_counters_invalidates_unrebased_cursors(self):
        """A cursor the solver forgot to rebase must still observe the
        reset — reset_counters bumps every mark as a safety net."""
        cluster = self.drained_cluster()
        cursor = BusyCursor()
        before = cluster.poll_busy(cursor)
        assert any(b > 0 for b in before)
        cluster.reset_counters()
        assert cluster.poll_busy(cursor) == [0.0, 0.0]

    def test_rebase_refreshes_values_without_fresh_completions(self):
        cluster = self.drained_cluster()
        cursor = BusyCursor()
        cluster.poll_busy(cursor)
        cluster.reset_counters()
        cluster.rebase_busy_cursor(cursor)
        assert list(cursor.values) == [0.0, 0.0]
        assert cluster.poll_busy(cursor) == [0.0, 0.0]

    def test_cursor_grows_with_the_cluster(self):
        """Node joins mid-run (elastic churn) extend the node list; the
        cursor must follow instead of indexing out of range."""
        cluster = self.drained_cluster()
        cursor = BusyCursor()
        cluster.poll_busy(cursor)
        cluster.add_node()
        polled = cluster.poll_busy(cursor)
        assert len(polled) == 3 and polled[2] == 0.0


class TestBusyMarksAccounting:
    def test_marks_move_exactly_with_busy_credit(self):
        """Every completion path credits busy time; the marks must move
        in lockstep or the cursor would serve stale windows."""
        cluster = SimCluster(1)
        node = cluster.nodes[0]
        assert node.busy_marks == 0
        cluster.submit(0, 1e3)
        cluster.run()
        after_run = node.busy_marks
        assert after_run > 0
        # a pure query must not bump marks
        cluster.busy_time(0)
        assert node.busy_marks == after_run

    def test_fail_node_bumps_marks(self):
        cluster = SimCluster(2)
        cluster.submit(1, 1e6)
        cluster.run(until=1e-6)
        cursor = BusyCursor()
        cluster.poll_busy(cursor)
        cluster.fail_node(1)
        cluster.run()
        # the dead node's window closed: the poll must re-read it
        assert cluster.poll_busy(cursor)[1] == cluster.busy_time(1)

