"""Nonlocal heat-equation solvers (paper Secs. 3, 6, 8).

Two implementations of the same forward-Euler discretization (eq. 5):

* :class:`repro.solver.serial.SerialSolver` — single-threaded reference;
* :class:`repro.solver.distributed.DistributedSolver` — futurized SD
  tasks with ghost exchange, Case-1/Case-2 overlap and load balancing on
  the simulated cluster (Secs. 6-7, 8.2-8.3); one multi-core node gives
  the shared-memory runs.

Supporting modules: the model constants (:mod:`repro.solver.model`), the
vectorized kernels (:mod:`repro.solver.kernel`), the pluggable kernel
backends (:mod:`repro.solver.backends`: direct / fft / sparse behind
one interface) and the manufactured exact solution
(:mod:`repro.solver.exact`).
"""

from .backends import (KernelBackend, apply_operator_reference,
                       auto_backend_name, backend_names, make_backend)
from .distributed import DistributedResult, DistributedSolver
from .exact import (ManufacturedProblem, interior_multiplier, step_error,
                    total_error)
from .kernel import NonlocalOperator, stable_dt
from .model import (InfluenceFunction, NonlocalHeatModel, constant_influence,
                    gaussian_influence, influence_moment, linear_influence)
from .serial import SerialSolver, SolveResult

__all__ = [
    "KernelBackend", "apply_operator_reference", "auto_backend_name",
    "backend_names", "make_backend",
    "DistributedResult", "DistributedSolver",
    "ManufacturedProblem", "interior_multiplier", "step_error", "total_error",
    "NonlocalOperator", "stable_dt",
    "InfluenceFunction", "NonlocalHeatModel", "constant_influence",
    "gaussian_influence", "influence_moment", "linear_influence",
    "SerialSolver", "SolveResult",
]
