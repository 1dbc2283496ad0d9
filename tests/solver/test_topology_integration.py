"""Topology threading through the solver + network-state bugfix regressions.

* the reused-network bugfix: a network instance passed to two
  successive solvers must not delay the second run's first sends with
  the first run's egress backlog (regression — failed before the
  per-run ``network.reset()``);
* the failed-node egress bugfix at cluster level (regression — the
  reservation used to survive ``fail_node``);
* the ghost-byte accounting guard: mis-attributed migration/recovery
  bytes raise instead of producing negative telemetry;
* golden parity: the ``fault_recovery`` scenario under an explicit
  default (``flat``) topology reproduces the committed golden record's
  schedule exactly, and topology runs conserve bytes across route
  classes.
"""

import json
import os
from unittest import mock

import numpy as np
import pytest

from repro.amt.cluster import SimCluster
from repro.amt.topology import FlatTopology, SwitchedTopology
from repro.experiments import TopologySpec, build, build_solver, run_scenario
from repro.solver.distributed import DistributedResult

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden",
                      "fault_recovery.json")


def _make_solver(network):
    """A small distributed solver wired to the given network model."""
    from repro.mesh.grid import UniformGrid
    from repro.mesh.subdomain import SubdomainGrid
    from repro.partition.geometric import block_partition
    from repro.solver.distributed import DistributedSolver
    from repro.solver.model import NonlocalHeatModel
    grid = UniformGrid(32, 32)
    model = NonlocalHeatModel(epsilon=2 * grid.h)
    sg = SubdomainGrid(32, 32, 4, 4)
    return DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                             num_nodes=4, compute_numerics=False,
                             network=network)


class TestReusedNetworkRegression:
    """Bugfix: egress backlog survived between runs."""

    def test_second_solver_sees_fresh_link_state(self):
        shared = FlatTopology()
        first = _make_solver(shared).run(None, 2).makespan
        reused = _make_solver(shared).run(None, 2).makespan
        fresh = _make_solver(FlatTopology()).run(None, 2).makespan
        assert reused == fresh == first

    def test_reused_network_byte_counters_are_per_run(self):
        shared = FlatTopology()
        res_a = _make_solver(shared).run(None, 2)
        res_b = _make_solver(shared).run(None, 2)
        # without the per-run reset, run B's ghost bytes would include
        # run A's accumulated traffic
        assert res_b.ghost_bytes == res_a.ghost_bytes

    def test_reused_topology_object_also_resets(self):
        shared = SwitchedTopology(rack_size=2, oversubscription=8.0,
                                  latency=2e-5, bandwidth=1e6)
        out = [_make_solver(shared).run(None, 2).makespan
               for _ in range(2)]
        assert out[0] == out[1]


class TestFailedNodeEgressRegression:
    """Bugfix: ``fail_node`` left the dead node's egress reservation."""

    def test_fail_node_releases_egress(self):
        cluster = SimCluster(num_nodes=3)
        cluster.send(1, 2, nbytes=10_000_000)   # big egress backlog on 1
        cluster.fail_node(1)
        # a later send bookkept under id 1 is not queued behind the dead
        # node's backlog
        fresh = FlatTopology().plan_send(1, 2, 100, 0.0)
        assert cluster.network.plan_send(1, 2, 100, 0.0) == fresh

    def test_other_reservations_survive(self):
        cluster = SimCluster(num_nodes=3)
        cluster.send(0, 2, nbytes=10_000_000)
        cluster.send(1, 2, nbytes=10_000_000)
        cluster.fail_node(1)
        fresh = FlatTopology().plan_send(0, 2, 100, 0.0)
        assert cluster.network.plan_send(0, 2, 100, 0.0) > fresh


class TestGhostByteGuard:
    """Bugfix: negative ghost bytes must fail loudly."""

    def test_misattributed_bytes_raise(self):
        spec = build("fig11_strong_distributed", steps=1)
        solver = build_solver(spec)
        with mock.patch.object(DistributedResult, "migration_bytes",
                               new_callable=mock.PropertyMock,
                               return_value=10 ** 15):
            with pytest.raises(RuntimeError, match="negative"):
                solver.run(None, spec.num_steps)

    def test_churn_run_stays_non_negative(self):
        rec = run_scenario(build("hetero_churn", steps=8))
        assert rec.ghost_bytes >= 0
        assert rec.recovery_bytes >= 0


class TestGoldenParityUnderFlatTopology:
    """The default topology reproduces the committed golden exactly."""

    def test_fault_recovery_schedule_unchanged(self):
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            golden = json.load(fh)["record"]
        spec = build("fault_recovery").with_topology(
            TopologySpec(kind="flat"))
        rec = run_scenario(spec).to_dict()
        for field in ("makespan", "step_durations", "imbalance_history",
                      "ghost_bytes", "balance_events", "recovery_events",
                      "parts_events", "final_parts", "busy_total"):
            assert rec[field] == golden[field], field
        # the telemetry attributes every byte to the flat route class
        assert rec["bytes_by_class"] == {
            "remote": golden["ghost_bytes"]
            + sum(e["migration_bytes"] for e in golden["balance_events"])
            + sum(e["recovery_bytes"] for e in golden["recovery_events"])}

    def test_flat_topology_matches_legacy_network_run(self):
        base = build("fig13_metis_scaling", steps=3)
        legacy = run_scenario(base)
        flat = run_scenario(base.with_topology("flat"))
        assert flat.makespan == legacy.makespan
        assert flat.step_durations == legacy.step_durations
        assert flat.ghost_bytes == legacy.ghost_bytes


class TestTopologyRunTelemetry:
    def test_byte_classes_partition_total_traffic(self):
        """ghost + migration + recovery == sum over route classes."""
        rec = run_scenario(build("wan_joiner", steps=10))
        total = (rec.ghost_bytes + rec.migration_bytes
                 + rec.recovery_bytes)
        assert sum(rec.bytes_by_class.values()) == total
        assert "wan" in rec.bytes_by_class   # the joiner paid the WAN

    def test_wan_joiner_handles_churn_under_topology(self):
        """PR-4 churn machinery composes with the hierarchical model."""
        rec = run_scenario(build("wan_joiner", steps=10))
        kinds = [e["kind"] for e in rec.recovery_events]
        assert kinds == ["fail", "join"]
        assert 3 not in rec.final_parts          # dead node evacuated
        assert 4 in rec.final_parts              # WAN joiner absorbed

    def test_rack_scenarios_deterministic_across_sweep(self):
        """Topology runs keep the bit-identical serial/sweep parity."""
        from repro.experiments import run_sweep
        specs = [build("oversubscribed_uplink", steps=2,
                       placement=p) for p in ("rack", "scatter")]
        serial = [run_scenario(s).to_dict() for s in specs]
        swept = [r.to_dict() for r in run_sweep(specs)]
        assert serial == swept
