"""Tests for the nonlocal operator kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.grid import UniformGrid
from repro.solver.backends import backend_names
from repro.solver.kernel import NonlocalOperator, stable_dt
from repro.solver.model import NonlocalHeatModel, linear_influence

from oracles import assemble_sparse_operator


def make(nx=16, eps_factor=3, backend="auto", **kw):
    grid = UniformGrid(nx, nx)
    model = NonlocalHeatModel(epsilon=eps_factor * grid.h, **kw)
    return model, grid, NonlocalOperator(model, grid, backend=backend)


class TestNonlocalOperator:
    def test_matches_sparse_assembly(self):
        model, grid, op = make(nx=12, eps_factor=3)
        A = assemble_sparse_operator(model, grid)
        u = np.random.default_rng(0).standard_normal(grid.shape)
        dense = op.apply(u)
        sparse = (A @ u.ravel()).reshape(grid.shape)
        assert np.allclose(dense, sparse, atol=1e-11)

    def test_matches_sparse_with_linear_influence(self):
        model, grid, op = make(nx=10, eps_factor=2,
                               influence=linear_influence)
        A = assemble_sparse_operator(model, grid)
        u = np.random.default_rng(1).standard_normal(grid.shape)
        assert np.allclose(op.apply(u),
                           (A @ u.ravel()).reshape(grid.shape), atol=1e-11)

    def test_linearity(self):
        _, grid, op = make()
        rng = np.random.default_rng(2)
        u, v = rng.standard_normal((2,) + grid.shape)
        assert np.allclose(op.apply(2 * u + 3 * v),
                           2 * op.apply(u) + 3 * op.apply(v), atol=1e-10)

    def test_zero_field_maps_to_zero(self):
        _, grid, op = make()
        assert np.all(op.apply(np.zeros(grid.shape)) == 0.0)

    def test_interior_of_constant_field_is_dissipative_at_boundary_only(self):
        """On a constant field, L(u) = 0 in the deep interior but < 0 near
        the boundary (the Dc zero condition drains heat)."""
        _, grid, op = make(nx=20, eps_factor=3)
        u = np.ones(grid.shape)
        r = op.apply(u)
        R = op.radius
        interior = r[R:-R, R:-R]
        assert np.allclose(interior, 0.0, atol=1e-10)
        assert r[0, 0] < 0  # corner loses heat to Dc

    def test_negative_semidefinite_quadratic_form(self):
        """<u, L u> <= 0: the operator dissipates energy."""
        model, grid, _ = make(nx=10, eps_factor=2)
        A = assemble_sparse_operator(model, grid).toarray()
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.standard_normal(grid.num_points)
            assert u @ A @ u <= 1e-8

    def test_operator_is_symmetric_matrix(self):
        model, grid, _ = make(nx=8, eps_factor=2)
        A = assemble_sparse_operator(model, grid).toarray()
        assert np.allclose(A, A.T, atol=1e-12)

    def test_shape_validation(self):
        _, grid, op = make()
        with pytest.raises(ValueError, match="field shape"):
            op.apply(np.zeros((3, 3)))


class TestApplyBlock:
    def test_block_matches_global_interior(self):
        _, grid, op = make(nx=16, eps_factor=2)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(grid.shape)
        full = op.apply(u)
        R = op.radius
        # take block [4:8) x [4:8) with its halo
        padded = u[4 - R:8 + R, 4 - R:8 + R]
        block = op.apply_block(padded)
        assert np.allclose(block, full[4:8, 4:8], atol=1e-11)

    def test_block_at_domain_boundary_with_zero_padding(self):
        _, grid, op = make(nx=16, eps_factor=2)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(grid.shape)
        full = op.apply(u)
        R = op.radius
        padded = np.zeros((4 + 2 * R, 4 + 2 * R))
        padded[R:, R:] = u[:4 + R, :4 + R]  # corner block + halo, zeros in Dc
        block = op.apply_block(padded)
        assert np.allclose(block, full[:4, :4], atol=1e-11)

    def test_too_small_block_rejected(self):
        _, grid, op = make(eps_factor=3)
        R = op.radius
        with pytest.raises(ValueError, match="too small"):
            op.apply_block(np.zeros((2 * R, 2 * R + 5)))

    def test_wrong_radius_rejected(self):
        _, grid, op = make(eps_factor=3)
        with pytest.raises(ValueError, match="radius"):
            op.apply_block(np.zeros((20, 20)), radius=op.radius + 1)

    def test_flops_per_dp_positive(self):
        _, _, op = make()
        assert op.flops_per_dp() == 2.0 * op.stencil.num_neighbors


class TestOneDimensionalPath:
    """Regression: the 1-D model's single-row mask through apply_block.

    The seed's dense path assumed a square mask: a valid convolution
    with a ``(1, 2R+1)`` mask does not shrink the y axis, so the block
    update came back with shape ``(1 + 2R, w)`` instead of ``(1, w)``.
    """

    def make_1d(self, nx=32, eps_factor=4, backend="auto"):
        grid = UniformGrid(nx, 1, dim=1)
        model = NonlocalHeatModel(epsilon=eps_factor * grid.h, dim=1)
        return grid, NonlocalOperator(model, grid, backend=backend)

    @pytest.mark.parametrize("backend", backend_names())
    def test_block_shape_and_values_match_full_apply(self, backend):
        grid, op = self.make_1d(backend=backend)
        R = op.radius
        u = np.random.default_rng(8).standard_normal(grid.shape)
        full = op.apply(u)
        padded = np.zeros((1 + 2 * R, 8 + 2 * R))
        padded[R, :] = u[0, 8 - R:16 + R]  # block [8:16) with halo
        block = op.apply_block(padded)
        assert block.shape == (1, 8)
        assert np.allclose(block, full[:, 8:16],
                           atol=1e-12 * max(1.0, np.abs(full).max()))

    @pytest.mark.parametrize("backend", backend_names())
    def test_boundary_block_with_zero_padding(self, backend):
        grid, op = self.make_1d(backend=backend)
        R = op.radius
        u = np.random.default_rng(9).standard_normal(grid.shape)
        full = op.apply(u)
        padded = np.zeros((1 + 2 * R, 8 + 2 * R))
        padded[R, R:] = u[0, :8 + R]  # leftmost block, Dc zeros on the left
        block = op.apply_block(padded)
        assert block.shape == (1, 8)
        assert np.allclose(block, full[:, :8],
                           atol=1e-12 * max(1.0, np.abs(full).max()))


class TestStableDt:
    def test_euler_stable_at_stable_dt(self):
        """Integrating noise with stable dt must not blow up."""
        model, grid, op = make(nx=12, eps_factor=2)
        dt = stable_dt(model, grid)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(grid.shape)
        norm0 = np.linalg.norm(u)
        for _ in range(50):
            u = u + dt * op.apply(u)
        assert np.linalg.norm(u) <= norm0 * 1.001

    def test_euler_unstable_beyond_bound(self):
        """4x the stability bound must diverge (checks the bound is tight
        to within the safety factor)."""
        model, grid, op = make(nx=12, eps_factor=2)
        dt = 4.0 * stable_dt(model, grid, safety=1.0)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(grid.shape)
        norm0 = np.linalg.norm(u)
        for _ in range(50):
            u = u + dt * op.apply(u)
        assert np.linalg.norm(u) > 10 * norm0

    def test_safety_scales_linearly(self):
        model, grid, _ = make()
        assert stable_dt(model, grid, safety=0.25) == pytest.approx(
            0.5 * stable_dt(model, grid, safety=0.5))

    @pytest.mark.parametrize("backend", backend_names())
    def test_bound_is_backend_independent(self, backend):
        """stable_dt reads only the stencil's weight_sum — never backend
        internals — so every backend shares one stability bound."""
        model, grid, op = make(backend=backend)
        assert stable_dt(model, grid) == pytest.approx(
            stable_dt(model, grid, stencil=op.stencil), rel=0, abs=0)
        assert stable_dt(model, grid) == pytest.approx(
            0.5 / (model.c * grid.cell_volume * op.stencil.weight_sum))

    @pytest.mark.parametrize("backend", backend_names())
    def test_euler_stable_at_stable_dt_under_each_backend(self, backend):
        """The bound holds for the arithmetic each backend actually
        performs, not just the dense reference."""
        model, grid, op = make(nx=12, eps_factor=2, backend=backend)
        dt = stable_dt(model, grid, stencil=op.stencil)
        rng = np.random.default_rng(10)
        u = rng.standard_normal(grid.shape)
        norm0 = np.linalg.norm(u)
        for _ in range(30):
            u = u + dt * op.apply(u)
        assert np.linalg.norm(u) <= norm0 * 1.001

    @given(nx=st.sampled_from([8, 12, 16]), eps_factor=st.sampled_from([2, 3, 4]))
    @settings(max_examples=9, deadline=None)
    def test_heat_decays_from_any_grid_config(self, nx, eps_factor):
        """Unforced solutions decay monotonically in L2 (dissipativity)."""
        model, grid, op = make(nx=nx, eps_factor=eps_factor)
        dt = stable_dt(model, grid)
        X, Y = grid.meshgrid()
        u = np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
        prev = np.linalg.norm(u)
        for _ in range(10):
            u = u + dt * op.apply(u)
            cur = np.linalg.norm(u)
            assert cur <= prev + 1e-12
            prev = cur
