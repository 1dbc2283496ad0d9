"""Tests for non-square domain masks."""

import numpy as np
import pytest

from repro.mesh.domain import DomainMask
from repro.mesh.subdomain import SubdomainGrid
from repro.partition.kway import partition_graph
from repro.partition.metrics import num_parts_used


def sg8():
    return SubdomainGrid(64, 64, 8, 8)


class TestFactories:
    def test_full_mask(self):
        m = DomainMask.full(sg8())
        assert len(m.active_sds()) == 64

    def test_l_shape_removes_corner(self):
        m = DomainMask.l_shape(sg8(), notch=0.5)
        assert len(m.active_sds()) == 64 - 16
        sg = m.sd_grid
        assert not m.active[sg.sd_id(7, 7)]  # notched corner
        assert m.active[sg.sd_id(0, 0)]

    def test_disc(self):
        m = DomainMask.disc(sg8(), radius=0.5)
        # corners of the square lie outside the inscribed disc
        sg = m.sd_grid
        assert not m.active[sg.sd_id(0, 0)]
        assert m.active[sg.sd_id(4, 4)]
        assert 40 <= len(m.active_sds()) <= 60

    def test_predicate(self):
        m = DomainMask.from_predicate(sg8(), lambda x, y: x < 0.5)
        assert len(m.active_sds()) == 32

    def test_validation(self):
        with pytest.raises(ValueError, match="mask length"):
            DomainMask(sg8(), np.ones(5, dtype=bool))
        with pytest.raises(ValueError, match="every SD"):
            DomainMask(sg8(), np.zeros(64, dtype=bool))
        with pytest.raises(ValueError, match="notch"):
            DomainMask.l_shape(sg8(), notch=1.5)
        with pytest.raises(ValueError, match="radius"):
            DomainMask.disc(sg8(), radius=0.0)


class TestQueries:
    def test_dp_mask_covers_active_rects(self):
        m = DomainMask.l_shape(sg8(), notch=0.5)
        dp = m.dp_mask()
        assert dp.shape == (64, 64)
        assert dp[:32, :].all()       # lower half fully active
        assert not dp[32:, 32:].any()  # notch inactive

    def test_work_factors_zero_inactive(self):
        m = DomainMask.l_shape(sg8())
        wf = m.work_factors()
        assert np.all(wf[m.active] == 1.0)
        assert np.all(wf[~m.active] == 0.0)

    def test_work_factors_compose_with_base(self):
        m = DomainMask.l_shape(sg8())
        base = np.full(64, 0.5)
        wf = m.work_factors(base)
        assert np.all(wf[m.active] == 0.5)
        assert np.all(wf[~m.active] == 0.0)

    def test_work_factors_base_length_checked(self):
        m = DomainMask.full(sg8())
        with pytest.raises(ValueError):
            m.work_factors(np.ones(3))

    def test_l_shape_connected(self):
        assert DomainMask.l_shape(sg8()).is_connected()

    def test_two_islands_not_connected(self):
        active = np.zeros(64, dtype=bool)
        active[0] = True
        active[63] = True
        m = DomainMask(sg8(), active)
        assert not m.is_connected()


class TestPartitioningActiveRegion:
    def test_active_dual_graph_vertex_count(self):
        m = DomainMask.l_shape(sg8())
        graph, ids = m.active_dual_graph()
        assert graph.num_vertices == len(m.active_sds())
        assert len(ids) == len(m.active_sds())

    def test_partition_only_active_region(self):
        m = DomainMask.l_shape(sg8())
        graph, ids = m.active_dual_graph()
        active_parts = partition_graph(graph, 4, seed=0)
        assert num_parts_used(active_parts) == 4
        parts = m.scatter_parts(active_parts)
        assert len(parts) == 64
        # every active SD got its partition id; inactive got the default
        for i, sd in enumerate(ids):
            assert parts[sd] == active_parts[i]

    def test_scatter_length_checked(self):
        m = DomainMask.l_shape(sg8())
        with pytest.raises(ValueError):
            m.scatter_parts(np.zeros(3, dtype=int))


class TestEndToEndLShapeSolve:
    def test_distributed_solve_on_l_shape(self):
        """An L-shaped run: inactive SDs carry zero work, temperatures
        outside the L stay exactly zero, and the active region evolves."""
        from repro.mesh.grid import UniformGrid
        from repro.solver.distributed import DistributedSolver
        from repro.solver.model import NonlocalHeatModel

        grid = UniformGrid(64, 64)
        model = NonlocalHeatModel(epsilon=4 * grid.h)
        sg = sg8()
        mask = DomainMask.l_shape(sg, notch=0.5)
        graph, ids = mask.active_dual_graph()
        parts = mask.scatter_parts(partition_graph(graph, 2, seed=0))
        u0 = grid.field_from_function(
            lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        solver = DistributedSolver(model, grid, sg, parts, num_nodes=2,
                                   work_factors=mask.work_factors(),
                                   domain_mask=mask)
        res = solver.run(u0, 3)
        # the active region computed something
        assert not np.allclose(res.u[mask.dp_mask()],
                               u0[mask.dp_mask()])
        # the notch stays pinned to zero (Dc extended to the void)
        assert np.all(res.u[~mask.dp_mask()] == 0.0)
        assert res.makespan > 0

    def test_masked_solution_matches_serial_with_zeroing(self):
        """The masked distributed solve equals a serial solve that
        re-applies the zero condition on the void every step."""
        from repro.mesh.grid import UniformGrid
        from repro.solver.kernel import NonlocalOperator, stable_dt
        from repro.solver.distributed import DistributedSolver
        from repro.solver.model import NonlocalHeatModel

        grid = UniformGrid(32, 32)
        model = NonlocalHeatModel(epsilon=4 * grid.h)
        sg = SubdomainGrid(32, 32, 4, 4)
        mask = DomainMask.l_shape(sg, notch=0.5)
        parts = mask.scatter_parts(
            np.zeros(len(mask.active_sds()), dtype=int))
        u0 = np.ones(grid.shape)
        dt = stable_dt(model, grid)
        solver = DistributedSolver(model, grid, sg, parts, num_nodes=1,
                                   dt=dt, domain_mask=mask)
        res = solver.run(u0, 3)

        op = NonlocalOperator(model, grid)
        dp = mask.dp_mask()
        u = u0.copy()
        u[~dp] = 0.0
        for _ in range(3):
            u = u + dt * op.apply(u)
            u[~dp] = 0.0
        assert np.allclose(res.u, u, atol=1e-12)
