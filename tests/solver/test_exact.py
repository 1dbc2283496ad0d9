"""Tests for the manufactured solution and error norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.grid import UniformGrid
from repro.solver.exact import (ManufacturedProblem, interior_multiplier,
                                step_error, total_error)
from repro.solver.model import (NonlocalHeatModel, constant_influence,
                                gaussian_influence, linear_influence)

from oracles import continuum_integral_oaconvolve


class TestExactFields:
    def test_initial_condition_is_sin_sin(self):
        grid = UniformGrid(16, 16)
        model = NonlocalHeatModel(epsilon=3 * grid.h)
        prob = ManufacturedProblem(model, grid, source_mode="discrete")
        X, Y = grid.meshgrid()
        assert np.allclose(prob.initial_condition(),
                           np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y))

    def test_exact_at_quarter_period_is_zero(self):
        grid = UniformGrid(8, 8)
        model = NonlocalHeatModel(epsilon=2 * grid.h)
        prob = ManufacturedProblem(model, grid, source_mode="discrete")
        assert np.allclose(prob.exact(0.25), 0.0, atol=1e-12)

    def test_source_splits_into_time_derivative_and_integral(self):
        """``b = dw/dt - cos(2 pi t) I``: at ``t = 0`` the time
        derivative vanishes, at ``t = 1/4`` the integral term does."""
        grid = UniformGrid(8, 8)
        model = NonlocalHeatModel(epsilon=2 * grid.h)
        prob = ManufacturedProblem(model, grid, source_mode="discrete")
        np.testing.assert_allclose(prob.source(0.0),
                                   -prob._integral_of_space, atol=1e-12)
        np.testing.assert_allclose(prob.source(0.25),
                                   -2 * np.pi * prob._space, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_out_receives_the_same_field(self, dim):
        """``exact``/``source`` write into ``out``, return it, and give
        the values of the allocating call bit for bit."""
        grid = UniformGrid(12, 12) if dim == 2 else UniformGrid(12, dim=1)
        model = NonlocalHeatModel(epsilon=3 * grid.h, dim=dim)
        prob = ManufacturedProblem(model, grid)
        out = np.empty(grid.shape)
        for t in (0.0, 0.13, 0.4):
            for field in (prob.exact, prob.source):
                assert field(t, out=out) is out
                np.testing.assert_array_equal(out, field(t))

    def test_source_rejects_an_out_it_cannot_fill_in_place(self):
        grid = UniformGrid(8, 8)
        model = NonlocalHeatModel(epsilon=2 * grid.h)
        prob = ManufacturedProblem(model, grid)
        # its rows are not one stride apart: no flat view to fill
        block = np.empty((8, 16))[:, :8]
        with pytest.raises(ValueError):
            prob.source(0.1, out=block)

    def test_time_periodicity(self):
        grid = UniformGrid(8, 8)
        model = NonlocalHeatModel(epsilon=2 * grid.h)
        prob = ManufacturedProblem(model, grid, source_mode="discrete")
        assert np.allclose(prob.exact(0.3), prob.exact(1.3), atol=1e-12)

    def test_invalid_source_mode(self):
        grid = UniformGrid(8, 8)
        model = NonlocalHeatModel(epsilon=2 * grid.h)
        with pytest.raises(ValueError, match="source mode"):
            ManufacturedProblem(model, grid, source_mode="nope")


class TestInteriorMultiplier:
    def test_quadrature_matches_bessel_in_deep_interior(self):
        """The oversampled quadrature agrees with the closed form away
        from the boundary."""
        grid = UniformGrid(32, 32)
        model = NonlocalHeatModel(epsilon=4 * grid.h)
        prob = ManufacturedProblem(model, grid, source_mode="continuum",
                                   oversample=11)
        m = interior_multiplier(model)
        s = prob._space
        integ = prob._integral_of_space / model.c
        center = (16, 16)
        assert integ[center] / s[center] == pytest.approx(m, rel=0.02)

    def test_requires_constant_influence(self):
        model = NonlocalHeatModel(epsilon=0.1, influence=linear_influence)
        with pytest.raises(ValueError, match="constant influence"):
            interior_multiplier(model)

    def test_1d_multiplier_formula(self):
        model = NonlocalHeatModel(epsilon=0.1, dim=1)
        m = interior_multiplier(model)
        expected = 2 * np.sin(2 * np.pi * 0.1) / (2 * np.pi) - 2 * 0.1
        assert m == pytest.approx(expected)

    def test_multiplier_is_negative(self):
        """The ball average of sin sin is below its center value."""
        model = NonlocalHeatModel(epsilon=0.05)
        assert interior_multiplier(model) < 0


class TestSeparableSource:
    """The separable product equals the convolution of the refined field."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2]),
           nx=st.integers(3, 24), ny=st.integers(3, 24),
           eps_factor=st.floats(1.0, 4.5),
           oversample=st.integers(1, 6),
           influence=st.sampled_from([constant_influence, linear_influence,
                                      gaussian_influence]))
    def test_matches_oaconvolve_oracle(self, dim, nx, ny, eps_factor,
                                       oversample, influence):
        grid = UniformGrid(nx, ny if dim == 2 else 1, dim=dim)
        model = NonlocalHeatModel(epsilon=eps_factor * grid.h, dim=dim,
                                  influence=influence)
        prob = ManufacturedProblem(model, grid, oversample=oversample)
        # even factors are rounded up to the next odd one
        assert prob.oversample == oversample | 1
        oracle = continuum_integral_oaconvolve(model, grid, prob.oversample)
        assert prob._integral_of_space.shape == oracle.shape == grid.shape
        # the field crosses zero inside D, so the tolerance is relative to
        # the field's scale, not to each entry
        np.testing.assert_allclose(prob._integral_of_space, oracle,
                                   rtol=1e-12,
                                   atol=1e-12 * np.abs(oracle).max())

    def test_paper_resolution_matches_oracle(self):
        """The paper's horizon (eps = 8h) and the default oversample 5,
        on a non-square grid."""
        grid = UniformGrid(128, 96)
        model = NonlocalHeatModel(epsilon=8 * grid.h)
        prob = ManufacturedProblem(model, grid, oversample=5)
        oracle = continuum_integral_oaconvolve(model, grid, 5)
        np.testing.assert_allclose(prob._integral_of_space, oracle,
                                   rtol=1e-12,
                                   atol=1e-12 * np.abs(oracle).max())


class TestErrorNorms:
    def test_step_error_zero_for_identical(self):
        grid = UniformGrid(8, 8)
        u = np.ones(grid.shape)
        assert step_error(grid, u, u) == 0.0

    def test_step_error_scales_with_h_squared(self):
        """A constant pointwise error of 1 gives e = h^2 * N = 1."""
        grid = UniformGrid(8, 8)
        e = step_error(grid, np.zeros(grid.shape), np.ones(grid.shape))
        assert e == pytest.approx(grid.h ** 2 * 64)
        assert e == pytest.approx(1.0)

    def test_step_error_out_holds_the_difference(self):
        """``out`` may be ``exact`` itself; the error is the same."""
        grid = UniformGrid(8, 8)
        rng = np.random.default_rng(3)
        u, w = rng.random(grid.shape), rng.random(grid.shape)
        expected = step_error(grid, u, w)
        assert expected == pytest.approx(grid.h ** 2 * np.sum((u - w) ** 2),
                                         rel=1e-14)
        out = w.copy()
        assert step_error(grid, u, out, out=out) == expected
        np.testing.assert_array_equal(out, u - w)

    def test_step_error_shape_check(self):
        grid = UniformGrid(8, 8)
        with pytest.raises(ValueError):
            step_error(grid, np.zeros((8, 8)), np.zeros((4, 4)))

    def test_total_error_sums(self):
        assert total_error([0.5, 0.25, 0.25]) == pytest.approx(1.0)

    def test_1d_error_uses_h(self):
        grid = UniformGrid(4, dim=1)
        e = step_error(grid, np.zeros(grid.shape), np.ones(grid.shape))
        assert e == pytest.approx(grid.h * 4)


class TestManufacturedSolve:
    def test_discrete_mode_error_is_time_error_only(self, solve_manufactured):
        """With the discrete source, the error is tiny (O(dt))."""
        res = solve_manufactured(24, eps_factor=3, num_steps=10,
                                 source_mode="discrete")
        assert res.total_error < 1e-6

    def test_discrete_mode_error_shrinks_with_dt(self, solve_manufactured):
        a = solve_manufactured(16, eps_factor=2, num_steps=4,
                               dt=1e-4, source_mode="discrete")
        b = solve_manufactured(16, eps_factor=2, num_steps=8,
                               dt=5e-5, source_mode="discrete")
        assert b.total_error < a.total_error

    def test_continuum_mode_error_decreases_with_h(self, solve_manufactured):
        """The headline property of the paper's Fig. 8."""
        errors = [solve_manufactured(n, eps_factor=2, num_steps=5,
                                     source_mode="continuum").total_error
                  for n in (8, 16, 32)]
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]

    def test_1d_manufactured_solve(self, solve_manufactured):
        res = solve_manufactured(32, eps_factor=3, num_steps=5,
                                 source_mode="discrete", dim=1)
        assert res.total_error < 1e-6
