"""Single-threaded reference solver (paper Sec. 6, first implementation).

Forward-Euler time stepping of eq. (5) over the full grid using the dense
convolution kernel.  This is the baseline every parallel variant is
validated against: the async and distributed solvers must reproduce its
temperatures to floating-point accuracy, since they perform the same
arithmetic in a different schedule.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..mesh.grid import UniformGrid
from .exact import step_error
from .kernel import NonlocalOperator, check_operator_matches, stable_dt
from .model import NonlocalHeatModel

__all__ = ["SerialSolver", "SolveResult"]


class SolveResult:
    """Outcome of a time integration.

    Attributes
    ----------
    u:
        Final temperature field.
    times:
        The discrete times ``t_0 .. t_N`` visited.
    errors:
        Per-step errors ``e_k`` vs. the exact solution (eq. 7) when an
        exact reference was supplied, else ``None``.
    """

    def __init__(self, u: np.ndarray, times: List[float],
                 errors: Optional[List[float]]) -> None:
        self.u = u
        self.times = times
        self.errors = errors

    @property
    def total_error(self) -> Optional[float]:
        """``e = sum_k e_k`` (None without an exact reference)."""
        return None if self.errors is None else float(np.sum(self.errors))


class SerialSolver:
    """Forward-Euler integrator ``u <- u + dt (b + L u)``.

    Parameters
    ----------
    model, grid:
        Problem definition and discretization.
    source:
        ``b(t, out) -> out``: writes the heat source at time ``t`` into
        the solver's grid-shaped scratch array ``out`` and returns it
        (``None`` for an unforced problem).
    dt:
        Timestep; defaults to :func:`repro.solver.kernel.stable_dt`.
    operator:
        Optional prebuilt :class:`NonlocalOperator` (e.g. from the
        experiment runner's cache); must match ``grid`` and the
        model's horizon.
    backend:
        Kernel backend name for the operator when none is injected
        (``"auto"`` by default; see :mod:`repro.solver.backends`).
    """

    def __init__(self, model: NonlocalHeatModel, grid: UniformGrid,
                 source: Optional[Callable[..., np.ndarray]] = None,
                 dt: Optional[float] = None,
                 operator: Optional[NonlocalOperator] = None,
                 backend: str = "auto") -> None:
        self.model = model
        self.grid = grid
        if operator is None:
            operator = NonlocalOperator(model, grid, backend=backend)
        else:
            check_operator_matches(operator, model, grid)
        self.operator = operator
        self.source = source
        self.dt = (stable_dt(model, grid, stencil=operator.stencil)
                   if dt is None else float(dt))
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        #: receives the source and the exact field, so a step allocates
        #: only the operator apply's result
        self._scratch = np.empty(grid.shape)

    def step(self, u: np.ndarray, t: float) -> np.ndarray:
        """One forward-Euler step from time ``t``; returns the new field."""
        rhs = self.operator.apply(u)
        if self.source is not None:
            rhs += self.source(t, out=self._scratch)
        rhs *= self.dt
        rhs += u
        return rhs

    def run(self, u0: np.ndarray, num_steps: int,
            exact: Optional[Callable[..., np.ndarray]] = None) -> SolveResult:
        """Integrate ``num_steps`` steps from ``u0``.

        ``exact(t, out) -> out`` (the same contract as ``source``)
        enables per-step error tracking (eq. 7), including
        the initial step ``e_0`` (zero by construction for a consistent
        initial condition, kept for parity with the paper's sum over
        ``0 <= k <= N``).
        """
        if num_steps < 0:
            raise ValueError(f"num_steps must be >= 0, got {num_steps}")
        u = np.array(u0, dtype=np.float64, copy=True)
        if u.shape != self.grid.shape:
            raise ValueError(f"u0 shape {u.shape} != grid {self.grid.shape}")
        times = [0.0]
        errors: Optional[List[float]] = None
        if exact is not None:
            errors = [self._step_error(u, 0.0, exact)]
        t = 0.0
        for _ in range(num_steps):
            u = self.step(u, t)
            t += self.dt
            times.append(t)
            if exact is not None:
                errors.append(self._step_error(u, t, exact))
        return SolveResult(u, times, errors)

    def _step_error(self, u: np.ndarray, t: float,
                    exact: Callable[..., np.ndarray]) -> float:
        """Eq. (7) at time ``t``, the difference held in the scratch."""
        scratch = self._scratch
        return step_error(self.grid, u, exact(t, out=scratch), out=scratch)
