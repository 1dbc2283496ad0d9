"""Tests for the distributed solver on the simulated cluster."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import apply_by_subdomain

from repro.amt.cluster import ConstantSpeed
from repro.amt.topology import FlatTopology
from repro.core.policy import IntervalPolicy
from repro.core.strategies import (auto_strategy_name, make_strategy,
                                   strategy_names)
from repro.mesh.domain import DomainMask
from repro.mesh.grid import UniformGrid
from repro.mesh.subdomain import SubdomainGrid
from repro.partition.geometric import block_partition
from repro.solver.backends import backend_names
from repro.solver.distributed import DistributedSolver
from repro.solver.exact import ManufacturedProblem
from repro.solver.kernel import NonlocalOperator
from repro.solver.model import NonlocalHeatModel
from repro.solver.serial import SerialSolver


def setup(nx=24, eps_factor=3, sds=4):
    grid = UniformGrid(nx, nx)
    model = NonlocalHeatModel(epsilon=eps_factor * grid.h)
    prob = ManufacturedProblem(model, grid, source_mode="discrete")
    sg = SubdomainGrid(nx, nx, sds, sds)
    return grid, model, prob, sg


class TestNumericalCorrectness:
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_matches_serial(self, nodes):
        grid, model, prob, sg = setup()
        serial = SerialSolver(model, grid, source=prob.source)
        ref = serial.run(prob.initial_condition(), 4)
        parts = block_partition(4, 4, nodes)
        dsol = DistributedSolver(model, grid, sg, parts, num_nodes=nodes,
                                 source=prob.source, dt=serial.dt)
        res = dsol.run(prob.initial_condition(), 4)
        assert np.allclose(res.u, ref.u, atol=1e-12)

    def test_matches_serial_without_overlap(self):
        grid, model, prob, sg = setup()
        serial = SerialSolver(model, grid, source=prob.source)
        ref = serial.run(prob.initial_condition(), 3)
        parts = block_partition(4, 4, 4)
        dsol = DistributedSolver(model, grid, sg, parts, num_nodes=4,
                                 source=prob.source, dt=serial.dt,
                                 overlap=False)
        res = dsol.run(prob.initial_condition(), 3)
        assert np.allclose(res.u, ref.u, atol=1e-12)

    def test_matches_serial_with_balancing_enabled(self):
        grid, model, prob, sg = setup()
        serial = SerialSolver(model, grid, source=prob.source)
        ref = serial.run(prob.initial_condition(), 6)
        speeds = [ConstantSpeed(s) for s in (1e6, 2e6, 3e6, 4e6)]
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                                 num_nodes=4, speeds=speeds,
                                 source=prob.source, dt=serial.dt,
                                 balancer="auto",
                                 policy=IntervalPolicy(2))
        res = dsol.run(prob.initial_condition(), 6)
        assert np.allclose(res.u, ref.u, atol=1e-12)

    @pytest.mark.parametrize("sd_layout,nodes", [((1, 1), 1), ((2, 2), 3),
                                                 ((4, 4), 3), ((3, 2), 2)])
    def test_matches_serial_for_any_sd_layout(self, sd_layout, nodes):
        grid, model, prob, _ = setup()
        serial = SerialSolver(model, grid, source=prob.source)
        ref = serial.run(prob.initial_condition(), 4)
        sg = SubdomainGrid(24, 24, *sd_layout)
        dsol = DistributedSolver(model, grid, sg,
                                 block_partition(*sd_layout, nodes),
                                 num_nodes=nodes, source=prob.source,
                                 dt=serial.dt)
        res = dsol.run(prob.initial_condition(), 4)
        assert np.allclose(res.u, ref.u, atol=1e-12)

    def test_large_radius_halo_across_multiple_sds(self):
        """Stencil radius bigger than SD size still agrees with serial."""
        grid, model, prob, sg = setup(nx=16, eps_factor=4, sds=8)  # R=4 > 2-DP SDs
        serial = SerialSolver(model, grid, source=prob.source)
        ref = serial.run(prob.initial_condition(), 2)
        dsol = DistributedSolver(model, grid, sg, block_partition(8, 8, 4),
                                 num_nodes=4, source=prob.source,
                                 dt=serial.dt)
        res = dsol.run(prob.initial_condition(), 2)
        assert np.allclose(res.u, ref.u, atol=1e-12)

    def test_uneven_sd_sizes(self):
        grid, model, prob, sg = setup(nx=18, eps_factor=2)  # 18/4 uneven
        serial = SerialSolver(model, grid, source=prob.source)
        ref = serial.run(prob.initial_condition(), 2)
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 2),
                                 num_nodes=2, source=prob.source,
                                 dt=serial.dt)
        res = dsol.run(prob.initial_condition(), 2)
        assert np.allclose(res.u, ref.u, atol=1e-12)

    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_core_count_does_not_change_result(self, cores):
        """One multi-core node (the shared-memory runs of Figs. 9-10)
        computes the serial solver's field for any core count."""
        grid, model, prob, sg = setup(nx=16, eps_factor=2)
        serial = SerialSolver(model, grid, source=prob.source)
        ref = serial.run(prob.initial_condition(), 3)
        dsol = DistributedSolver(model, grid, sg, np.zeros(16, dtype=int),
                                 num_nodes=1, cores_per_node=cores,
                                 source=prob.source, dt=serial.dt)
        res = dsol.run(prob.initial_condition(), 3)
        assert np.allclose(res.u, ref.u, atol=1e-12)

    def test_error_tracking(self):
        grid, model, prob, sg = setup(nx=16, eps_factor=2)
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 2),
                                 num_nodes=2, source=prob.source)
        res = dsol.run(prob.initial_condition(), 3, exact=prob.exact)
        assert res.total_error < 1e-6
        assert len(res.errors) == 4


class TestScheduleProperties:
    def test_makespan_positive_and_steps_recorded(self):
        grid, model, prob, sg = setup()
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                                 num_nodes=4, source=prob.source)
        res = dsol.run(prob.initial_condition(), 5)
        assert res.makespan > 0
        assert len(res.step_durations) == 5
        assert sum(res.step_durations) == pytest.approx(res.makespan)

    def test_two_nodes_faster_than_one(self):
        grid, model, prob, sg = setup()
        r1 = DistributedSolver(model, grid, sg, block_partition(4, 4, 1),
                               num_nodes=1, source=prob.source).run(
            prob.initial_condition(), 3)
        r2 = DistributedSolver(model, grid, sg, block_partition(4, 4, 2),
                               num_nodes=2, source=prob.source).run(
            prob.initial_condition(), 3)
        assert r2.makespan < r1.makespan

    def test_more_cores_shorten_a_shared_memory_run(self):
        grid, model, _, sg = setup()
        spans = []
        for cores in (1, 2, 4):
            dsol = DistributedSolver(model, grid, sg,
                                     np.zeros(16, dtype=int), num_nodes=1,
                                     cores_per_node=cores,
                                     compute_numerics=False)
            spans.append(dsol.run(None, 3).makespan)
        assert spans[0] > spans[1] > spans[2]
        assert spans[0] / spans[2] > 3.0

    def test_speedup_close_to_linear_with_cheap_network(self):
        grid, model, prob, sg = setup(nx=32, sds=8)
        net = FlatTopology(latency=1e-9, bandwidth=1e15)
        r1 = DistributedSolver(model, grid, sg, block_partition(8, 8, 1),
                               num_nodes=1, network=net,
                               compute_numerics=False).run(None, 3)
        net2 = FlatTopology(latency=1e-9, bandwidth=1e15)
        r4 = DistributedSolver(model, grid, sg, block_partition(8, 8, 4),
                               num_nodes=4, network=net2,
                               compute_numerics=False).run(None, 3)
        speedup = r1.makespan / r4.makespan
        assert speedup == pytest.approx(4.0, rel=0.15)

    def test_overlap_hides_communication(self):
        """With a slow network, Case-1/Case-2 overlap must beat no-overlap."""
        grid, model, prob, sg = setup(nx=32, sds=4)
        slow = dict(latency=2e-4, bandwidth=1e7)
        ro = DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                               num_nodes=4, network=FlatTopology(**slow),
                               compute_numerics=False, overlap=True).run(None, 5)
        rn = DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                               num_nodes=4, network=FlatTopology(**slow),
                               compute_numerics=False, overlap=False).run(None, 5)
        assert ro.makespan < rn.makespan

    def test_ghost_bytes_accounted(self):
        grid, model, prob, sg = setup()
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                                 num_nodes=4, compute_numerics=False)
        res = dsol.run(None, 2)
        from repro.mesh.decomposition import Decomposition
        decomp = Decomposition(sg, block_partition(4, 4, 4), 4)
        per_step = decomp.total_exchange_bytes(dsol.operator.radius)
        assert res.ghost_bytes == 2 * per_step

    def test_single_node_no_ghost_traffic(self):
        grid, model, prob, sg = setup()
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 1),
                                 num_nodes=1, compute_numerics=False)
        res = dsol.run(None, 3)
        assert res.ghost_bytes == 0

    def test_deterministic_schedule(self):
        grid, model, prob, sg = setup()

        def once():
            dsol = DistributedSolver(model, grid, sg,
                                     block_partition(4, 4, 4), num_nodes=4,
                                     compute_numerics=False)
            res = dsol.run(None, 4)
            return res.makespan, tuple(res.step_durations)

        assert once() == once()


class TestLoadBalancingIntegration:
    def test_heterogeneous_cluster_balances_and_speeds_up(self):
        grid, model, prob, sg = setup(nx=32, sds=4)
        speeds = lambda: [ConstantSpeed(s) for s in (1e6, 1e6, 4e6, 4e6)]
        base = DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                                 num_nodes=4, speeds=speeds(),
                                 compute_numerics=False).run(None, 10)
        bal = DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                                num_nodes=4, speeds=speeds(),
                                compute_numerics=False,
                                balancer="auto",
                                policy=IntervalPolicy(1)).run(None, 10)
        assert bal.makespan < base.makespan
        assert bal.balance_results  # balancing actually happened
        moved_counts = [b.sds_moved for b in bal.balance_results if b.triggered]
        assert moved_counts and moved_counts[0] > 0

    def test_balancing_converges_no_perpetual_migration(self):
        grid, model, prob, sg = setup(nx=32, sds=4)
        speeds = [ConstantSpeed(s) for s in (1e6, 1e6, 4e6, 4e6)]
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                                 num_nodes=4, speeds=speeds,
                                 compute_numerics=False,
                                 balancer="auto",
                                 policy=IntervalPolicy(1))
        res = dsol.run(None, 10)
        # after the initial redistribution, later steps must not migrate
        late_moves = sum(b.sds_moved for b in res.balance_results[3:])
        assert late_moves == 0

    def test_migration_bytes_charged(self):
        grid, model, prob, sg = setup(nx=32, sds=4)
        speeds = [ConstantSpeed(s) for s in (1e6, 4e6, 1e6, 4e6)]
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                                 num_nodes=4, speeds=speeds,
                                 compute_numerics=False,
                                 balancer="auto",
                                 policy=IntervalPolicy(1))
        res = dsol.run(None, 5)
        if any(b.sds_moved for b in res.balance_results):
            assert res.migration_bytes > 0

    def test_work_factors_shift_load(self):
        """A crack-lightened region finishes faster; balancer gives its
        owner more SDs."""
        grid, model, prob, sg = setup(nx=32, sds=4)
        wf = np.ones(16)
        wf[:8] = 0.3  # bottom half much cheaper (crack region)
        parts = np.repeat([0, 0, 1, 1], 4)  # bottom rows node 0
        dsol = DistributedSolver(model, grid, sg, parts, num_nodes=2,
                                 compute_numerics=False, work_factors=wf,
                                 balancer="auto",
                                 policy=IntervalPolicy(1))
        res = dsol.run(None, 6)
        counts = np.bincount(dsol.parts, minlength=2)
        assert counts[0] > 8  # node 0 took on extra SDs


class TestBalancerArgument:
    """``balancer=`` takes a strategy name or a prebuilt strategy; names
    resolve once, at construction."""

    @staticmethod
    def build(sg, grid, model, **kwargs):
        speeds = [ConstantSpeed(s) for s in (1e6, 1e6, 4e6, 4e6)]
        return DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                                 num_nodes=4, speeds=speeds,
                                 compute_numerics=False,
                                 policy=IntervalPolicy(1), **kwargs)

    @pytest.mark.parametrize("name", ["auto"] + strategy_names())
    def test_name_resolves_and_reports(self, name):
        grid, model, prob, sg = setup(nx=32, sds=4)
        dsol = self.build(sg, grid, model, balancer=name)
        expected = auto_strategy_name() if name == "auto" else name
        assert dsol.balancer.name == expected
        assert dsol.balancer.sd_grid is sg
        res = dsol.run(None, 3)
        assert res.balance_results
        assert {b.strategy for b in res.balance_results} == {expected}

    def test_omitted_argument_is_the_papers_algorithm(self):
        grid, model, prob, sg = setup(nx=32, sds=4)
        assert self.build(sg, grid, model).balancer.name == "tree"

    def test_prebuilt_strategy_is_used_as_given(self):
        grid, model, prob, sg = setup(nx=32, sds=4)
        strategy = make_strategy("diffusion", sg)
        dsol = self.build(sg, grid, model, balancer=strategy)
        assert dsol.balancer is strategy
        res = dsol.run(None, 3)
        assert {b.strategy for b in res.balance_results} == {"diffusion"}

    def test_unknown_name_rejected_at_construction(self):
        grid, model, prob, sg = setup(nx=32, sds=4)
        with pytest.raises(ValueError, match="unknown balancing strategy"):
            self.build(sg, grid, model, balancer="no_such_strategy")

    def test_auto_and_tree_give_the_same_schedule(self):
        grid, model, prob, sg = setup(nx=32, sds=4)
        auto = self.build(sg, grid, model, balancer="auto").run(None, 6)
        tree = self.build(sg, grid, model, balancer="tree").run(None, 6)
        assert auto.makespan == tree.makespan
        assert [(step, parts.tolist()) for step, parts in auto.parts_history] \
            == [(step, parts.tolist()) for step, parts in tree.parts_history]


class TestValidation:
    def test_mesh_mismatch(self):
        grid = UniformGrid(16, 16)
        model = NonlocalHeatModel(epsilon=2 * grid.h)
        with pytest.raises(ValueError, match="SD grid covers"):
            DistributedSolver(model, grid, SubdomainGrid(8, 8, 2, 2),
                              np.zeros(4, dtype=int), 1)

    def test_u0_required_with_numerics(self):
        grid, model, prob, sg = setup()
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 1),
                                 num_nodes=1)
        with pytest.raises(ValueError, match="u0 required"):
            dsol.run(None, 1)

    def test_exact_requires_numerics(self):
        grid, model, prob, sg = setup()
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 1),
                                 num_nodes=1, compute_numerics=False)
        with pytest.raises(ValueError, match="requires numerics"):
            dsol.run(None, 1, exact=prob.exact)

    def test_bad_work_factors(self):
        grid, model, prob, sg = setup()
        with pytest.raises(ValueError, match="work_factors"):
            DistributedSolver(model, grid, sg, block_partition(4, 4, 1),
                              num_nodes=1, work_factors=np.ones(3))


class TestSpawnOverhead:
    def test_overhead_slows_run(self):
        grid, model, prob, sg = setup()
        parts = block_partition(4, 4, 1)
        base = DistributedSolver(model, grid, sg, parts, num_nodes=1,
                                 compute_numerics=False).run(None, 2)
        slow = DistributedSolver(model, grid, sg, parts, num_nodes=1,
                                 compute_numerics=False,
                                 spawn_overhead=1e-4).run(None, 2)
        assert slow.makespan > base.makespan

    def test_overhead_caps_speedup_below_linear(self):
        """With a serial spawn component, many-core speedup saturates
        below the core count (Amdahl)."""
        grid, model, prob, sg = setup(nx=32, sds=8)
        parts = block_partition(8, 8, 1)

        def makespan(cores, overhead):
            # cost model pinned: the spawn/compute ratio below is tuned
            # against flat task times (hierarchy-priced tasks run long
            # enough that the spawner always keeps 4 cores fed)
            return DistributedSolver(
                model, grid, sg, parts, num_nodes=1, cores_per_node=cores,
                compute_numerics=False, cost_model="flat",
                spawn_overhead=overhead).run(None, 3).makespan

        ideal = makespan(1, 0.0) / makespan(4, 0.0)
        # spawn ~ a third of one task's compute time (16 DP x 56 flops
        # at 1 GF/s ~ 0.9 us/task): 4 cores drain faster than the
        # spawner feeds them, so the speedup saturates below 4
        real = makespan(1, 3e-7) / makespan(4, 3e-7)
        assert ideal == pytest.approx(4.0, rel=0.05)
        assert real < 0.95 * ideal
        assert real > 1.5

    def test_negative_overhead_rejected(self):
        grid, model, prob, sg = setup()
        with pytest.raises(ValueError, match="spawn_overhead"):
            DistributedSolver(model, grid, sg, block_partition(4, 4, 1),
                              num_nodes=1, spawn_overhead=-1.0)

    def test_numerics_unaffected_by_overhead(self):
        grid, model, prob, sg = setup()
        serial = SerialSolver(model, grid, source=prob.source)
        ref = serial.run(prob.initial_condition(), 3)
        res = DistributedSolver(model, grid, sg, block_partition(4, 4, 4),
                                num_nodes=4, source=prob.source,
                                dt=serial.dt, spawn_overhead=1e-5).run(
            prob.initial_condition(), 3)
        assert np.allclose(res.u, ref.u, atol=1e-12)


class TestFailurePropagation:
    def test_source_exception_surfaces(self):
        """A failing source evaluation (step setup) aborts the run."""
        grid, model, prob, sg = setup()

        class ExplodingSource:
            def __init__(self):
                self.calls = 0

            def __call__(self, t, out):
                if self.calls >= 1:  # fail from the second step on
                    raise RuntimeError("sensor died")
                self.calls += 1
                return prob.source(t, out=out)

        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 2),
                                 num_nodes=2, source=ExplodingSource(),
                                 dt=1e-5)
        with pytest.raises(RuntimeError, match="sensor died"):
            dsol.run(prob.initial_condition(), 4)

    def test_operator_exception_surfaces(self):
        """A failing step apply aborts the run with its own exception."""
        grid, model, prob, sg = setup()
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 2),
                                 num_nodes=2, source=prob.source, dt=1e-5)
        boom = FloatingPointError("kernel blew up")

        def apply_block(padded):
            raise boom

        dsol.operator.apply_block = apply_block
        with pytest.raises(FloatingPointError) as info:
            dsol.run(prob.initial_condition(), 1)
        assert info.value is boom


class TestStepApply:
    """A step's temperatures come from one whole-field apply at the step
    barrier; the per-SD assembly it replaces stays the oracle."""

    @given(dim=st.sampled_from([1, 2]),
           radius=st.integers(1, 4),
           mesh=st.tuples(st.integers(4, 20), st.integers(4, 20)),
           sd_axes=st.tuples(st.integers(1, 5), st.integers(1, 5)),
           backend=st.sampled_from(backend_names()),
           active_bits=st.integers(0, 2 ** 25 - 1),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_subdomain_blocks_equal_one_padded_apply(
            self, dim, radius, mesh, sd_axes, backend, active_bits, seed):
        nx, ny = mesh if dim == 2 else (mesh[0], 1)
        sd_nx = min(sd_axes[0], nx)
        sd_ny = min(sd_axes[1], ny)
        grid = UniformGrid(nx, ny, dim=dim)
        model = NonlocalHeatModel(epsilon=radius * grid.h, dim=dim)
        op = NonlocalOperator(model, grid, backend=backend)
        sg = SubdomainGrid(nx, ny, sd_nx, sd_ny)
        active = np.array([(active_bits >> sd) & 1 == 1
                           for sd in range(sg.num_subdomains)])
        active[seed % sg.num_subdomains] = True
        mask = DomainMask(sg, active)
        u = np.random.default_rng(seed).standard_normal(grid.shape)
        u[~mask.dp_mask()] = 0.0  # inactive SDs hold the Dc zero
        R = op.radius
        whole = op.apply_block(np.pad(u, R))
        blocks = apply_by_subdomain(op, sg, u, sds=mask.active_sds())
        inside = mask.dp_mask()
        np.testing.assert_allclose(blocks[inside], whole[inside],
                                   rtol=1e-12,
                                   atol=1e-12 * np.abs(whole).max())

    @pytest.mark.parametrize("overlap", [True, False])
    def test_one_apply_per_step(self, overlap, monkeypatch):
        grid, model, prob, sg = setup()
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 3),
                                 num_nodes=3, source=prob.source,
                                 overlap=overlap)
        calls = []
        apply_block = dsol.operator.apply_block
        monkeypatch.setattr(dsol.operator, "apply_block",
                            lambda padded: calls.append(padded.shape)
                            or apply_block(padded))
        dsol.run(prob.initial_condition(), 5)
        R = dsol.operator.radius
        assert calls == [(grid.ny + 2 * R, grid.nx + 2 * R)] * 5

    def test_schedule_only_run_applies_nothing(self, monkeypatch):
        grid, model, prob, sg = setup()
        dsol = DistributedSolver(model, grid, sg, block_partition(4, 4, 2),
                                 num_nodes=2, compute_numerics=False)
        monkeypatch.setattr(dsol.operator, "apply_block",
                            lambda padded: pytest.fail("applied"))
        dsol.run(None, 3)


class TestDerivedCountersWithoutEvents:
    """Edge case: a run that never balanced (and never saw churn) must
    report clean zero aggregates — the derived properties sum over
    empty event lists."""

    def test_zero_balance_events(self):
        grid, model, prob, sg = setup()
        solver = DistributedSolver(model, grid, sg,
                                   block_partition(4, 4, 2), num_nodes=2,
                                   compute_numerics=False)
        res = solver.run(None, 2)
        assert res.balance_events == []
        assert res.recovery_events == []
        assert res.sds_moved == 0
        assert res.migration_bytes == 0
        assert res.balance_results == []
        assert res.parts_history == []
        # all network traffic is ghost traffic
        assert res.ghost_bytes == solver.cluster.network.bytes_sent

    def test_zero_step_run_has_empty_telemetry(self):
        grid, model, prob, sg = setup()
        solver = DistributedSolver(model, grid, sg,
                                   block_partition(4, 4, 2), num_nodes=2,
                                   compute_numerics=False)
        res = solver.run(None, 0)
        assert res.makespan == 0.0
        assert res.sds_moved == 0 and res.migration_bytes == 0
        assert res.step_durations == [] and res.imbalance_history == []

    def test_record_properties_with_zero_events(self):
        from repro.experiments import RunRecord
        rec = RunRecord()
        assert rec.sds_moved == 0
        assert rec.migration_bytes == 0
        assert rec.recovery_bytes == 0
