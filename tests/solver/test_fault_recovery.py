"""Fault recovery on the distributed solver, pinned by a golden record.

Three layers:

* the committed ``tests/golden/fault_recovery.json`` regression — the
  virtual schedule (makespan, step durations, recovery/balance events,
  final ownership) of the ``fault_recovery`` scenario compared field by
  field (exact for virtual-time quantities, tolerant for the numeric
  errors, which may differ in the last bits across BLAS builds);
* numerics under churn: the run's final temperatures must match the
  serial solver even though a node died mid-run and its kernels were
  re-executed elsewhere;
* solver-level behaviors the curated scenario exercises: recovery
  penalty accounting, checkpoint gating, and the never-balance
  evacuation path.
"""

import gc
import json
import os
import weakref

import numpy as np
import pytest

from repro.amt.faults import ChurnEvent, FaultSchedule
from repro.core.policy import IntervalPolicy, NeverBalance
from repro.experiments import SCHEMA, RunRecord, build, build_solver, \
    run_scenario
from repro.mesh.grid import UniformGrid
from repro.mesh.subdomain import SubdomainGrid
from repro.partition.geometric import block_partition
from repro.solver.distributed import DistributedSolver
from repro.solver.exact import ManufacturedProblem
from repro.solver.model import NonlocalHeatModel
from repro.solver.serial import SerialSolver

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden",
                      "fault_recovery.json")

#: Fields whose values are virtual-time/schedule quantities — exact
#: (deterministic arithmetic, machine-independent).
EXACT_FIELDS = ("scenario", "solver", "spec", "num_steps", "makespan",
                "step_durations", "imbalance_history", "ghost_bytes",
                "balance_events", "recovery_events", "parts_events",
                "final_parts", "busy_total", "backend_resolved",
                "balancer_resolved")


class TestGoldenRecord:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["schema"] == SCHEMA
        return doc["record"]

    @pytest.fixture(scope="class")
    def fresh(self):
        return run_scenario(build("fault_recovery"))

    def test_schedule_fields_match_exactly(self, golden, fresh):
        fresh_dict = fresh.to_dict()
        for field in EXACT_FIELDS:
            assert fresh_dict[field] == golden[field], field

    def test_numeric_fields_match_to_rounding(self, golden, fresh):
        assert fresh.dt == pytest.approx(golden["dt"], rel=1e-12)
        assert fresh.total_error == pytest.approx(golden["total_error"],
                                                  rel=1e-9)
        for a, b in zip(fresh.errors, golden["errors"]):
            assert a == pytest.approx(b, rel=1e-9)

    def test_golden_pins_a_real_recovery(self, golden):
        """The fixture must keep covering what it exists to cover."""
        (event,) = golden["recovery_events"]
        assert event["kind"] == "fail" and event["node"] == 1
        assert event["sds_evacuated"] > 0
        assert event["tasks_requeued"] > 0
        assert 1 not in golden["final_parts"]
        assert any(e["recovery"] for e in golden["balance_events"])

    def test_record_round_trips(self, golden):
        rec = RunRecord.from_dict(golden)
        assert rec.to_dict() == golden


class TestNumericsUnderChurn:
    def test_final_temperatures_match_serial(self):
        """Node 1 dies mid-run; the recovered distributed field must
        still agree with the serial reference to floating point."""
        spec = build("fault_recovery")
        prob = ManufacturedProblem(
            NonlocalHeatModel(epsilon=2.0 * UniformGrid(32, 32).h),
            UniformGrid(32, 32))
        solver = build_solver(spec, source=prob.source)
        res = solver.run(prob.initial_condition(), spec.num_steps)
        assert res.recovery_events and res.recovery_events[0].kind == "fail"

        serial = SerialSolver(solver.model, solver.grid, source=prob.source,
                              operator=solver.operator)
        ref = serial.run(prob.initial_condition(), spec.num_steps)
        np.testing.assert_allclose(res.u, ref.u, rtol=0, atol=1e-12)


def _make_solver(faults, policy, steps_model=None, balancer="tree"):
    grid = UniformGrid(32, 32)
    model = NonlocalHeatModel(epsilon=2 * grid.h)
    sg = SubdomainGrid(32, 32, 4, 4)
    return DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                             num_nodes=4, balancer=balancer, policy=policy,
                             compute_numerics=False, faults=faults)


class TestSolverFaultBehavior:
    def _step_time(self):
        solver = _make_solver(None, IntervalPolicy(1))
        return solver.run(None, 2).step_durations[0]

    def test_recovery_penalty_lengthens_the_run(self):
        """A higher recovery penalty must cost virtual time — the
        requeued tasks carry the extra work."""
        step = self._step_time()
        spans = []
        for penalty in (0.0, 2.0):
            faults = FaultSchedule(4, (ChurnEvent("fail", 1.5 * step, 0),),
                                   recovery_penalty=penalty)
            res = _make_solver(faults, IntervalPolicy(1)).run(None, 4)
            assert res.recovery_events[0].tasks_requeued > 0
            spans.append(res.makespan)
        assert spans[1] > spans[0]

    def test_never_balance_evacuates_mechanically(self):
        step = self._step_time()
        faults = FaultSchedule(4, (ChurnEvent("fail", 1.5 * step, 2),))
        solver = _make_solver(faults, NeverBalance())
        res = solver.run(None, 4)
        assert np.all(solver.parts != 2)
        (event,) = res.balance_events
        assert event.strategy == "evacuate" and event.recovery
        assert res.recovery_events[0].sds_evacuated == 4

    def test_recovery_transfers_gate_the_next_step(self):
        """Failure-path data movement is not latency-free: on a slow
        network the checkpoint re-fetches and recovery migrations must
        delay the next step start, exactly like ordinary step-boundary
        migrations (the new owner cannot compute on data that has not
        arrived)."""
        from repro.amt.topology import FlatTopology

        def run(bandwidth, faults):
            grid = UniformGrid(32, 32)
            model = NonlocalHeatModel(epsilon=2 * grid.h)
            sg = SubdomainGrid(32, 32, 4, 4)
            solver = DistributedSolver(
                model, grid, sg, block_partition(4, 4, 4), num_nodes=4,
                balancer="tree", policy=IntervalPolicy(10 ** 9),
                compute_numerics=False, faults=faults,
                network=FlatTopology(bandwidth=bandwidth))
            return solver.run(None, 4)

        step = run(1.25e9, None).step_durations[0]
        faults = FaultSchedule(4, (ChurnEvent("fail", 1.5 * step, 0),))
        fast = run(1.25e9, faults)
        # ~2 ms per evacuated SD's 2 KB on a 1 MB/s wire: the recovery
        # traffic alone dwarfs the compute steps if it gates correctly
        slow = run(1e6, faults)
        wire_time = slow.recovery_events[0].sds_evacuated * 2048 / 1e6
        assert slow.makespan > fast.makespan + 0.5 * wire_time

    def test_fault_past_the_end_is_ignored(self):
        step = self._step_time()
        faults = FaultSchedule(4, (ChurnEvent("fail", 1000 * step, 0),))
        solver = _make_solver(faults, IntervalPolicy(1))
        res = solver.run(None, 2)
        assert res.recovery_events == []
        assert solver.cluster.nodes[0].alive

    def test_orphan_handler_lives_only_inside_run(self):
        """The cluster holds the solver's orphan handler while a run is
        in progress, every run, and drops it when the run returns: a
        finished solver and its cluster form no reference cycle."""
        step = self._step_time()
        faults = FaultSchedule(4, (ChurnEvent("fail", 1.5 * step, 0),))
        solver = _make_solver(faults, IntervalPolicy(1))
        cluster_run = solver.cluster.run
        seen = []

        def run(*args, **kwargs):
            seen.append(solver.cluster.orphan_handler)
            return cluster_run(*args, **kwargs)

        solver.cluster.run = run
        first = solver.run(None, 4)
        assert first.recovery_events[0].tasks_requeued > 0
        assert solver.cluster.orphan_handler is None
        solver.run(None, 2)
        assert solver.cluster.orphan_handler is None
        assert seen == [solver._requeue_orphan] * 2

    def test_run_without_steps_arms_no_fault(self):
        """A 0-step run queues no failure or join: with the collector
        off, neither the solver nor its cluster outlives ``del``.  The
        next run that steps arms them."""
        step = self._step_time()
        faults = FaultSchedule(4, (ChurnEvent("fail", 1.5 * step, 0),
                                   ChurnEvent("join", 2.5 * step, 4)))
        enabled = gc.isenabled()
        gc.disable()
        try:
            solver = _make_solver(faults, IntervalPolicy(1))
            solver.run(None, 0)
            refs = [weakref.ref(solver), weakref.ref(solver.cluster)]
            del solver
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()
        solver = _make_solver(faults, IntervalPolicy(1))
        solver.run(None, 0)
        res = solver.run(None, 4)
        assert [e.kind for e in res.recovery_events] == ["fail", "join"]

    def test_schedule_size_mismatch_rejected(self):
        faults = FaultSchedule(3, (ChurnEvent("fail", 1.0, 0),))
        with pytest.raises(ValueError, match="initial nodes"):
            _make_solver(faults, IntervalPolicy(1))

    def test_straggle_only_schedule_changes_no_membership(self):
        step = self._step_time()
        faults = FaultSchedule(4, (
            ChurnEvent("straggle", 0.5 * step, 1, stop=2.5 * step,
                       factor=0.25),))
        solver = _make_solver(faults, IntervalPolicy(1))
        res = solver.run(None, 4)
        assert res.recovery_events == []
        assert solver.cluster.active_node_ids() == [0, 1, 2, 3]
        # the straggler shows up in the busy-time spread the policy sees
        base = _make_solver(None, IntervalPolicy(1)).run(None, 4)
        assert res.makespan != base.makespan

    def test_join_only_schedule_absorbs_at_next_balance(self):
        step = self._step_time()
        faults = FaultSchedule(4, (
            ChurnEvent("join", 1.5 * step, 4, rate=2e9),))
        solver = _make_solver(faults, IntervalPolicy(1))
        res = solver.run(None, 4)
        (event,) = res.recovery_events
        assert event.kind == "join" and event.node == 4
        assert np.count_nonzero(solver.parts == 4) > 0
        joined_step = [e for e in res.balance_events
                       if e.recovery and e.step >= event.step]
        assert joined_step, "no recovery-tagged absorption event"
