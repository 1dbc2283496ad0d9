"""Tests for the serial reference solver."""

import numpy as np
import pytest

from repro.mesh.grid import UniformGrid
from repro.solver.exact import ManufacturedProblem
from repro.solver.model import NonlocalHeatModel
from repro.solver.serial import SerialSolver


def setup(nx=24, eps_factor=3):
    grid = UniformGrid(nx, nx)
    model = NonlocalHeatModel(epsilon=eps_factor * grid.h)
    prob = ManufacturedProblem(model, grid, source_mode="discrete")
    return grid, model, prob


class TestSerialSolver:
    def test_zero_steps_returns_initial(self):
        grid, model, prob = setup()
        solver = SerialSolver(model, grid, source=prob.source)
        u0 = prob.initial_condition()
        res = solver.run(u0, 0)
        assert np.array_equal(res.u, u0)
        assert res.times == [0.0]

    def test_input_not_mutated(self):
        grid, model, prob = setup()
        solver = SerialSolver(model, grid, source=prob.source)
        u0 = prob.initial_condition()
        keep = u0.copy()
        solver.run(u0, 3)
        assert np.array_equal(u0, keep)

    def test_times_match_dt(self):
        grid, model, prob = setup()
        solver = SerialSolver(model, grid, source=prob.source, dt=1e-5)
        res = solver.run(prob.initial_condition(), 4)
        assert res.times == pytest.approx([0, 1e-5, 2e-5, 3e-5, 4e-5])

    def test_error_tracking_length(self):
        grid, model, prob = setup()
        solver = SerialSolver(model, grid, source=prob.source)
        res = solver.run(prob.initial_condition(), 5, exact=prob.exact)
        assert len(res.errors) == 6  # e_0 .. e_5
        assert res.errors[0] == 0.0  # consistent initial condition

    def test_no_exact_no_errors(self):
        grid, model, prob = setup()
        solver = SerialSolver(model, grid, source=prob.source)
        res = solver.run(prob.initial_condition(), 2)
        assert res.errors is None
        assert res.total_error is None

    def test_unforced_decay(self):
        grid, model, _ = setup()
        solver = SerialSolver(model, grid)
        u0 = np.ones(grid.shape)
        res = solver.run(u0, 10)
        assert np.linalg.norm(res.u) < np.linalg.norm(u0)

    def test_validation(self):
        grid, model, prob = setup()
        solver = SerialSolver(model, grid)
        with pytest.raises(ValueError, match="num_steps"):
            solver.run(prob.initial_condition(), -1)
        with pytest.raises(ValueError, match="u0 shape"):
            solver.run(np.zeros((3, 3)), 1)
        with pytest.raises(ValueError, match="dt"):
            SerialSolver(model, grid, dt=-1.0)
