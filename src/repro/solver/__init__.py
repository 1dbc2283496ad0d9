"""Nonlocal heat-equation solvers (paper Secs. 3, 6, 8).

Three implementations of the same forward-Euler discretization (eq. 5),
mirroring the paper's development path:

* :class:`repro.solver.serial.SerialSolver` — single-threaded reference;
* :class:`repro.solver.async_solver.AsyncSolver` — shared-memory
  futurized SD tasks on a real thread pool (Sec. 8.2);
* :class:`repro.solver.distributed.DistributedSolver` — SD-distributed
  with ghost exchange, Case-1/Case-2 overlap and load balancing on the
  simulated cluster (Secs. 6-7, 8.3).

Supporting modules: the model constants (:mod:`repro.solver.model`), the
vectorized kernels (:mod:`repro.solver.kernel`), the pluggable kernel
backends (:mod:`repro.solver.backends`: direct / fft / sparse behind
one interface) and the manufactured exact solution
(:mod:`repro.solver.exact`).
"""

from .async_solver import AsyncSolver
from .backends import (KernelBackend, apply_operator_reference,
                       auto_backend_name, backend_names, make_backend)
from .distributed import DistributedResult, DistributedSolver
from .local import LocalHeatSolver, local_stable_dt
from .exact import (ManufacturedProblem, interior_multiplier, step_error,
                    total_error)
from .kernel import NonlocalOperator, assemble_sparse_operator, stable_dt
from .model import (InfluenceFunction, NonlocalHeatModel, constant_influence,
                    gaussian_influence, influence_moment, linear_influence)
from .serial import SerialSolver, SolveResult, solve_manufactured

__all__ = [
    "AsyncSolver",
    "KernelBackend", "apply_operator_reference", "auto_backend_name",
    "backend_names", "make_backend",
    "DistributedResult", "DistributedSolver",
    "LocalHeatSolver", "local_stable_dt",
    "ManufacturedProblem", "interior_multiplier", "step_error", "total_error",
    "NonlocalOperator", "assemble_sparse_operator", "stable_dt",
    "InfluenceFunction", "NonlocalHeatModel", "constant_influence",
    "gaussian_influence", "influence_moment", "linear_influence",
    "SerialSolver", "SolveResult", "solve_manufactured",
]
