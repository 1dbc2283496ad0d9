"""Integration: the serial and distributed solvers are the same
discretization.

The distributed solver performs the serial solver's arithmetic under a
different schedule; any divergence beyond float round-off means a
ghost-exchange or decomposition bug.  These tests sweep layouts,
horizons, influence functions, and partitioners.
"""

import numpy as np
import pytest

from repro.mesh.grid import UniformGrid
from repro.mesh.subdomain import SubdomainGrid
from repro.partition.geometric import strip_partition
from repro.partition.kway import partition_sd_grid
from repro.solver.distributed import DistributedSolver
from repro.solver.exact import ManufacturedProblem
from repro.solver.model import (NonlocalHeatModel, gaussian_influence,
                                linear_influence)
from repro.solver.serial import SerialSolver


def reference(nx, eps_factor, steps, influence=None):
    grid = UniformGrid(nx, nx)
    kwargs = {} if influence is None else {"influence": influence}
    model = NonlocalHeatModel(epsilon=eps_factor * grid.h, **kwargs)
    prob = ManufacturedProblem(model, grid, source_mode="discrete")
    serial = SerialSolver(model, grid, source=prob.source)
    ref = serial.run(prob.initial_condition(), steps)
    return grid, model, prob, serial.dt, ref


class TestThreeWayAgreement:
    @pytest.mark.parametrize("eps_factor", [2, 4, 6])
    def test_all_solvers_agree_across_horizons(self, eps_factor):
        grid, model, prob, dt, ref = reference(32, eps_factor, 3)
        sg = SubdomainGrid(32, 32, 4, 4)
        d = DistributedSolver(model, grid, sg, partition_sd_grid(4, 4, 3),
                              num_nodes=3, source=prob.source, dt=dt).run(
            prob.initial_condition(), 3)
        assert np.allclose(d.u, ref.u, atol=1e-12)

    @pytest.mark.parametrize("eps_factor", [2, 4, 6])
    def test_shared_memory_node_agrees_across_horizons(self, eps_factor):
        """All SDs on one 4-core node: the shared-memory configuration."""
        grid, model, prob, dt, ref = reference(32, eps_factor, 3)
        sg = SubdomainGrid(32, 32, 4, 4)
        d = DistributedSolver(model, grid, sg, np.zeros(16, dtype=int),
                              num_nodes=1, cores_per_node=4,
                              source=prob.source, dt=dt).run(
            prob.initial_condition(), 3)
        assert np.allclose(d.u, ref.u, atol=1e-12)

    @pytest.mark.parametrize("influence", [linear_influence, gaussian_influence])
    def test_agreement_with_nonconstant_influence(self, influence):
        grid, model, prob, dt, ref = reference(24, 3, 3, influence=influence)
        sg = SubdomainGrid(24, 24, 3, 3)
        d = DistributedSolver(model, grid, sg, strip_partition(3, 3, 2),
                              num_nodes=2, source=prob.source, dt=dt).run(
            prob.initial_condition(), 3)
        assert np.allclose(d.u, ref.u, atol=1e-12)

    def test_agreement_with_metis_vs_strip_partitions(self):
        """Different partitions must not change the numerics at all."""
        grid, model, prob, dt, _ = reference(32, 3, 3)
        sg = SubdomainGrid(32, 32, 4, 4)
        u0 = prob.initial_condition()
        runs = []
        for parts, k in [(partition_sd_grid(4, 4, 4), 4),
                         (strip_partition(4, 4, 4), 4),
                         (np.zeros(16, dtype=int), 1)]:
            res = DistributedSolver(model, grid, sg, parts, num_nodes=k,
                                    source=prob.source, dt=dt).run(u0, 3)
            runs.append(res.u)
        assert np.allclose(runs[0], runs[1], atol=1e-12)
        assert np.allclose(runs[0], runs[2], atol=1e-12)

    def test_agreement_under_active_balancing_with_work_factors(self):
        """Balancing mid-run (migrations included) must not perturb
        temperatures."""
        from repro.core.policy import IntervalPolicy
        from repro.amt.cluster import ConstantSpeed

        grid, model, prob, dt, ref = reference(32, 3, 6)
        sg = SubdomainGrid(32, 32, 4, 4)
        wf = np.ones(16)
        wf[:4] = 0.4
        speeds = [ConstantSpeed(s) for s in (1e6, 2e6, 3e6, 4e6)]
        d = DistributedSolver(model, grid, sg, partition_sd_grid(4, 4, 4),
                              num_nodes=4, speeds=speeds, work_factors=wf,
                              source=prob.source, dt=dt,
                              balancer="auto",
                              policy=IntervalPolicy(1)).run(
            prob.initial_condition(), 6)
        assert any(b.sds_moved for b in d.balance_results)
        assert np.allclose(d.u, ref.u, atol=1e-12)


class TestConvergenceOrder:
    def test_spatial_convergence_is_second_order(self, solve_manufactured):
        """Continuum-source errors shrink ~4x per mesh halving.

        The error norm (eq. 7) is a *squared* L2 sum, so second-order
        pointwise accuracy appears as a factor ~16 per refinement; we
        require at least 8 to allow boundary-layer pollution.
        """
        errors = []
        for nx in (16, 32, 64):
            res = solve_manufactured(nx, eps_factor=2, num_steps=4,
                                     dt=0.01 / (nx * nx),
                                     source_mode="continuum")
            errors.append(res.total_error)
        assert errors[0] / errors[1] > 8
        assert errors[1] / errors[2] > 8

    def test_temporal_convergence_first_order(self, solve_manufactured):
        """Discrete-source errors scale ~dt (squared norm => ~dt^2)."""
        T = 16 * 2e-4
        coarse = solve_manufactured(16, eps_factor=2, num_steps=16,
                                    dt=T / 16, source_mode="discrete")
        fine = solve_manufactured(16, eps_factor=2, num_steps=32,
                                  dt=T / 32, source_mode="discrete")
        # compare the *final-step* errors at the same physical time
        ratio = coarse.errors[-1] / fine.errors[-1]
        assert 2.5 < ratio < 6.5  # ~4 expected for first-order-in-dt
