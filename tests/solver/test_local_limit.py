"""The nonlocal operator's eps -> 0 limit is the classical Laplacian."""

import numpy as np
import pytest

from repro.mesh.grid import UniformGrid
from repro.solver.kernel import NonlocalOperator
from repro.solver.model import NonlocalHeatModel


def _interior(eps_factor, n=32):
    """Operator, coordinates and the slice of DPs whose ball lies
    inside the domain."""
    grid = UniformGrid(n, n)
    op = NonlocalOperator(NonlocalHeatModel(epsilon=eps_factor * grid.h),
                          grid)
    r = op.radius
    return op, grid.meshgrid(), (slice(r, -r), slice(r, -r))


class TestNonlocalToLocalLimit:
    def test_nonlocal_operator_approaches_laplacian(self):
        """Shrinking eps at fixed eps/h: L_nonlocal -> k*Laplacian
        (this is what calibrates eq. 2).  The ratio eps/h must stay
        fixed (or grow) so the ball-quadrature error O((h/eps)^2) does
        not mask the continuum O(eps^2) convergence."""
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


    @pytest.mark.parametrize("eps_factor", [2, 4, 8])
    def test_linear_field_is_annihilated(self, eps_factor):
        """A symmetric ball kills linear fields exactly, as the
        Laplacian does."""
        op, (X, Y), inner = _interior(eps_factor)
        for u in (X, Y, 3 * X - 2 * Y + 1):
            assert np.abs(op.apply(u)[inner]).max() < 1e-9

    @pytest.mark.parametrize("eps_factor", [2, 4, 8])
    def test_quadratic_field_gives_a_constant(self, eps_factor):
        """Every interior DP sees the same stencil, so ``x^2 + y^2``
        maps to one constant (the Laplacian's 4, up to quadrature)."""
        op, (X, Y), inner = _interior(eps_factor)
        applied = op.apply(X ** 2 + Y ** 2)[inner]
        assert np.ptp(applied) < 1e-9
        assert applied.mean() == pytest.approx(4.0, rel=0.15)

    def test_quadratic_constant_reaches_laplacian_at_wide_horizon(self):
        """At eps = 16h the ball quadrature is fine enough that the
        constant lies within 2% of the Laplacian's 4."""
        op, (X, Y), inner = _interior(16, n=64)
        assert op.apply(X ** 2 + Y ** 2)[inner].mean() == pytest.approx(
            4.0, rel=0.02)
