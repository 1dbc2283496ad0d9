"""Tests for execution tracing and Gantt rendering."""

import pytest

from repro.amt.cluster import ConstantSpeed, SimCluster
from repro.amt.topology import FlatTopology
from repro.reporting.trace import TaskInterval, TraceRecorder, render_gantt


class TestTraceRecorder:
    def test_records_single_task(self):
        cluster = SimCluster(1, speeds=[ConstantSpeed(2.0)])
        trace = TraceRecorder(cluster)
        cluster.submit(0, work=10.0, label="kernel")
        cluster.run()
        assert len(trace.intervals) == 1
        iv = trace.intervals[0]
        assert iv.node_id == 0
        assert iv.label == "kernel"
        assert iv.start == 0.0
        assert iv.end == pytest.approx(5.0)

    def test_serialized_tasks_do_not_overlap(self):
        cluster = SimCluster(1, cores_per_node=1)
        trace = TraceRecorder(cluster)
        for i in range(4):
            cluster.submit(0, work=2.0, label=f"t{i}")
        cluster.run()
        ivs = sorted(trace.intervals, key=lambda iv: iv.start)
        assert len(ivs) == 4
        for a, b in zip(ivs, ivs[1:]):
            assert b.start >= a.end - 1e-12

    def test_every_task_recorded_on_its_node(self):
        cluster = SimCluster(2, cores_per_node=1)
        trace = TraceRecorder(cluster)
        for i in range(6):
            cluster.submit(i % 2, work=1.0 + i, label=f"t{i}")
        cluster.run()
        assert sorted((iv.node_id, iv.label) for iv in trace.intervals) == \
            sorted((i % 2, f"t{i}") for i in range(6))
        busy = [sum(iv.end - iv.start for iv in trace.intervals
                    if iv.node_id == n) for n in range(2)]
        assert busy == [pytest.approx(cluster.busy_time(n)) for n in range(2)]

    def test_two_cores_overlap(self):
        cluster = SimCluster(1, cores_per_node=2)
        trace = TraceRecorder(cluster)
        cluster.submit(0, work=4.0, label="a")
        cluster.submit(0, work=4.0, label="b")
        cluster.run()
        ivs = trace.intervals
        assert ivs[0].start == ivs[1].start == 0.0

    def test_recording_does_not_change_schedule(self):
        def run(with_trace):
            cluster = SimCluster(2, cores_per_node=2)
            if with_trace:
                TraceRecorder(cluster)
            for i in range(10):
                cluster.submit(i % 2, work=1.0 + i)
            return cluster.run()

        assert run(False) == run(True)

    def test_dependent_task_starts_after_message(self):
        net = FlatTopology(latency=3.0, bandwidth=1e12, serialize_egress=False)
        cluster = SimCluster(2, network=net)
        trace = TraceRecorder(cluster)
        msg = cluster.send(0, 1, nbytes=0)
        cluster.submit(1, work=1.0, deps=[msg], label="c1")
        cluster.run()
        assert trace.intervals[0].start == pytest.approx(3.0)


class TestRenderGantt:
    def test_empty(self):
        assert render_gantt([], 0.0) == "(empty schedule)"

    def test_lane_per_node(self):
        ivs = [TaskInterval(0, "a", 0.0, 5.0),
               TaskInterval(1, "b", 5.0, 10.0)]
        out = render_gantt(ivs, 10.0, width=20)
        lines = out.split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("n0 |")
        assert lines[2].startswith("n1 |")

    def test_glyphs_cover_proportional_span(self):
        ivs = [TaskInterval(0, "x", 0.0, 5.0)]
        out = render_gantt(ivs, 10.0, width=20)
        lane = out.split("\n")[1].split("|")[1]
        assert lane[:10] == "x" * 10
        assert lane[10:] == "." * 10

    def test_idle_shows_as_dots(self):
        ivs = [TaskInterval(0, "a", 8.0, 10.0)]
        out = render_gantt(ivs, 10.0, width=10)
        lane = out.split("\n")[1].split("|")[1]
        assert lane.startswith("........")

    def test_num_nodes_override(self):
        out = render_gantt([TaskInterval(0, "a", 0, 1)], 1.0, num_nodes=3)
        assert len(out.split("\n")) == 4

    def test_short_task_still_one_glyph(self):
        ivs = [TaskInterval(0, "z", 0.0, 1e-6)]
        out = render_gantt(ivs, 100.0, width=10)
        lane = out.split("\n")[1].split("|")[1]
        assert "z" in lane


class TestEndToEndOverlapVisibility:
    def test_case2_fills_ghost_wait(self):
        """With the Case-1/Case-2 split, the lane shows compute during
        the message flight; without it, leading idle time."""
        from repro.mesh.grid import UniformGrid
        from repro.mesh.subdomain import SubdomainGrid
        from repro.partition.geometric import block_partition
        from repro.solver.distributed import DistributedSolver
        from repro.solver.model import NonlocalHeatModel

        def first_start(overlap):
            grid = UniformGrid(64, 64)
            model = NonlocalHeatModel(epsilon=4 * grid.h)
            sg = SubdomainGrid(64, 64, 2, 2)
            net = FlatTopology(latency=1e-4, bandwidth=1e6)
            solver = DistributedSolver(model, grid, sg,
                                       block_partition(2, 2, 4),
                                       num_nodes=4, network=net,
                                       compute_numerics=False,
                                       overlap=overlap)
            trace = TraceRecorder(solver.cluster)
            solver.run(None, 1)
            return min(iv.start for iv in trace.intervals)

        assert first_start(True) == 0.0       # case-2 work starts at once
        assert first_start(False) > 0.0       # everything waits for ghosts
