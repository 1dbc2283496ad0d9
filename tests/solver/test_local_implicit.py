"""Tests for the classical local solver."""

import numpy as np
import pytest

from repro.mesh.grid import UniformGrid
from repro.solver.local import LocalHeatSolver, local_stable_dt
from repro.solver.model import NonlocalHeatModel


class TestLocalHeatSolver:
    def test_laplacian_of_linear_field_interior_zero(self):
        grid = UniformGrid(16, 16)
        solver = LocalHeatSolver(grid)
        X, _ = grid.meshgrid()
        lap = solver.laplacian(X)
        # interior of a linear field: Laplacian = 0
        assert np.allclose(lap[2:-2, 2:-2], 0.0, atol=1e-9)

    def test_laplacian_of_quadratic(self):
        grid = UniformGrid(32, 32)
        solver = LocalHeatSolver(grid)
        X, Y = grid.meshgrid()
        lap = solver.laplacian(X ** 2 + Y ** 2)
        # Laplacian(x^2 + y^2) = 4, exactly for the 5-point stencil
        assert np.allclose(lap[2:-2, 2:-2], 4.0, atol=1e-8)

    def test_sine_mode_decay_rate(self):
        """The (1,1) sine mode decays like exp(-2 k (2 pi)^2 t)."""
        grid = UniformGrid(64, 64)
        kappa = 1.0
        solver = LocalHeatSolver(grid, kappa=kappa)
        X, Y = grid.meshgrid()
        u = np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
        steps = 20
        res = solver.run(u, steps)
        t = steps * solver.dt
        expected = np.exp(-2 * kappa * (2 * np.pi) ** 2 * t)
        ratio = np.linalg.norm(res.u) / np.linalg.norm(u)
        assert ratio == pytest.approx(expected, rel=0.05)

    def test_stability_bound(self):
        grid = UniformGrid(16, 16)
        solver = LocalHeatSolver(grid, dt=local_stable_dt(grid))
        rng = np.random.default_rng(0)
        u = rng.standard_normal(grid.shape)
        n0 = np.linalg.norm(u)
        for _ in range(30):
            u = solver.step(u, 0.0)
        assert np.linalg.norm(u) <= n0

    def test_1d_laplacian(self):
        grid = UniformGrid(32, dim=1)
        solver = LocalHeatSolver(grid)
        x = grid.x_coords()[None, :]
        lap = solver.laplacian(x ** 2)
        assert np.allclose(lap[0, 2:-2], 2.0, atol=1e-8)

    def test_validation(self):
        grid = UniformGrid(8, 8)
        with pytest.raises(ValueError):
            LocalHeatSolver(grid, kappa=0.0)
        with pytest.raises(ValueError):
            LocalHeatSolver(grid, dt=-1.0)
        with pytest.raises(ValueError):
            LocalHeatSolver(grid).laplacian(np.zeros((3, 3)))


class TestNonlocalToLocalLimit:
    def test_nonlocal_operator_approaches_laplacian(self):
        """Shrinking eps at fixed eps/h: L_nonlocal -> k*Laplacian
        (this is what calibrates eq. 2).  The ratio eps/h must stay
        fixed (or grow) so the ball-quadrature error O((h/eps)^2) does
        not mask the continuum O(eps^2) convergence."""
        from repro.solver.kernel import NonlocalOperator
        errors = []
        for n in (64, 128, 256):
            grid = UniformGrid(n, n)
            X, Y = grid.meshgrid()
            u = np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
            exact_lap = -2 * (2 * np.pi) ** 2 * u  # Laplacian of sin sin
            model = NonlocalHeatModel(epsilon=16 * grid.h)
            op = NonlocalOperator(model, grid)
            applied = op.apply(u)
            m = n // 6  # exclude the eps-wide boundary layer
            err = np.abs(applied[m:-m, m:-m] - exact_lap[m:-m, m:-m]).max()
            errors.append(err / np.abs(exact_lap).max())
        # error decreases as the horizon shrinks (roughly 4x per halving)
        assert errors[1] < 0.5 * errors[0]
        assert errors[2] < 0.5 * errors[1]
        assert errors[2] < 0.05

