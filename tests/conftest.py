"""Shared fixtures."""

from unittest import mock

import pytest


@pytest.fixture(scope="session")
def run_per_event():
    """``run_scenario`` on the per-event reference path.

    Every solver the runner builds gets ``cluster.wave_batching =
    False``: one DES event per task completion, the oracle that batched
    runs must reproduce bit for bit.
    """
    from repro.experiments import run_scenario
    from repro.experiments import runner

    build_solver = runner.build_solver

    def per_event_solver(*args, **kwargs):
        solver = build_solver(*args, **kwargs)
        solver.cluster.wave_batching = False
        return solver

    def run(spec):
        with mock.patch.object(runner, "build_solver", per_event_solver):
            return run_scenario(spec)

    return run


@pytest.fixture(scope="session")
def solve_manufactured():
    """The validation study's serial driver (paper Fig. 8).

    ``solve(nx, eps_factor, num_steps, dt, source_mode, dim)`` builds the
    manufactured problem on an ``nx x nx`` grid (``nx x 1`` in 1-D) with
    ``eps = eps_factor * h``, integrates ``num_steps`` steps, and returns
    the :class:`repro.solver.serial.SolveResult` with per-step errors.
    """
    from repro.mesh.grid import UniformGrid
    from repro.solver.exact import ManufacturedProblem
    from repro.solver.model import NonlocalHeatModel
    from repro.solver.serial import SerialSolver

    def solve(nx, eps_factor=8.0, num_steps=20, dt=None,
              source_mode="continuum", dim=2):
        grid = UniformGrid(nx, nx if dim == 2 else 1, dim=dim)
        model = NonlocalHeatModel(epsilon=eps_factor * grid.h, dim=dim)
        problem = ManufacturedProblem(model, grid, source_mode=source_mode)
        solver = SerialSolver(model, grid, source=problem.source, dt=dt)
        return solver.run(problem.initial_condition(), num_steps,
                          exact=problem.exact)

    return solve
