"""A time step allocates no full-grid temporary.

The step's only fresh array is the operator apply's result: the source
and the exact field are written into a scratch array the solver owns,
the eq.-(7) difference is held there too, and the FFT backend
transforms in buffers its plans keep.  numpy reports its data buffers
to :mod:`tracemalloc`, so the traced peak over one steady-state step,
measured from where the step starts, counts the full-grid arrays it
allocates.
"""

import tracemalloc

from repro.mesh.grid import UniformGrid
from repro.mesh.subdomain import SubdomainGrid
from repro.partition.geometric import block_partition
from repro.solver.distributed import DistributedSolver
from repro.solver.exact import ManufacturedProblem
from repro.solver.model import NonlocalHeatModel
from repro.solver.serial import SerialSolver

#: the apply's result plus what bookkeeping a step allocates, in grid
#: arrays; one full-grid temporary more exceeds it
MAX_GRID_ARRAYS = 2.5


def _problem(n=128):
    grid = UniformGrid(n, n)
    # eps = 8h: the paper's horizon, which ``auto`` runs on the fft backend
    model = NonlocalHeatModel(epsilon=8 * grid.h)
    return grid, model, ManufacturedProblem(model, grid)


def _traced(run):
    tracemalloc.start()
    try:
        return run()
    finally:
        tracemalloc.stop()


def test_distributed_step_and_error_allocate_one_grid_array():
    """One steady-state ``_end_step``: the step's apply, source and
    update, and the eq.-(7) error that follows them."""
    grid, model, prob = _problem()
    solver = DistributedSolver(model, grid, SubdomainGrid(128, 128, 4, 4),
                               block_partition(4, 4, 4), num_nodes=4,
                               source=prob.source)
    assert solver.operator.backend_name == "fft"
    peaks = []
    end_step = solver._end_step

    def measured(step):
        if step != 2:
            return end_step(step)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        end_step(step)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)

    solver._end_step = measured
    res = _traced(lambda: solver.run(prob.initial_condition(), 4,
                                     exact=prob.exact))
    assert len(res.errors) == 5 and res.total_error > 0
    (peak,) = peaks
    assert peak <= MAX_GRID_ARRAYS * grid.num_points * 8, peak / (
        grid.num_points * 8)


def test_serial_step_and_error_allocate_one_grid_array():
    """One steady-state iteration of ``SerialSolver.run``, from the
    entry of one ``step`` to the entry of the next: the step and the
    eq.-(7) error that follows it."""
    grid, model, prob = _problem()
    solver = SerialSolver(model, grid, source=prob.source)
    assert solver.operator.backend_name == "fft"
    peaks = []
    step = solver.step
    calls = []

    def measured(u, t):
        calls.append(None)
        if len(calls) == 3:
            tracemalloc.reset_peak()
            measured.base = tracemalloc.get_traced_memory()[0]
        elif len(calls) == 4:
            peaks.append(tracemalloc.get_traced_memory()[1] - measured.base)
        return step(u, t)

    solver.step = measured
    res = _traced(lambda: solver.run(prob.initial_condition(), 4,
                                     exact=prob.exact))
    assert len(res.errors) == 5 and res.total_error > 0
    (peak,) = peaks
    assert peak <= MAX_GRID_ARRAYS * grid.num_points * 8, peak / (
        grid.num_points * 8)
