"""Vectorized nonlocal operator kernels.

The spatially discrete right-hand side of eq. (5) is, for DP ``i``,

    L(u)_i = c * V * [ (W ⊛ u)_i  -  S * u_i ]

where ``W`` is the stencil mask (``J`` weights), ``S = sum(W)`` and ``V``
the cell volume — the zero condition on ``Dc`` is exactly zero-extension
of ``u`` outside the array, which convolution with zero padding
implements natively.

:class:`NonlocalOperator` is the solver-facing object: it owns the
stencil and the prefactor and delegates the actual arithmetic to a
pluggable *kernel backend* (:mod:`repro.solver.backends`) — dense
convolution, precomputed-FFT, or cached sparse matvec — selected by
name (default ``"auto"``: radius heuristic).  It exposes
:meth:`~NonlocalOperator.apply` for the full grid and
:meth:`~NonlocalOperator.apply_block` for application on a padded
block (an SD with its ghosts, or the whole field with a zero rim).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..mesh.grid import UniformGrid
from ..mesh.stencil import NonlocalStencil, build_stencil
from .backends import KernelBackend, make_backend
from .model import NonlocalHeatModel

__all__ = ["NonlocalOperator", "check_operator_matches", "stable_dt"]


def check_operator_matches(operator: "NonlocalOperator",
                           model: NonlocalHeatModel,
                           grid: UniformGrid) -> None:
    """Reject a prebuilt operator that was assembled for different physics.

    Solvers accepting an injected operator call this: identity with the
    solver's own model/grid is the common (cache) case; otherwise every
    ingredient of the assembly — grid shape, horizon, diffusivity,
    influence function, dimension — must agree, or the solver would
    silently integrate a different equation.
    """
    if operator.model is model and operator.grid is grid:
        return
    if operator.grid.shape != grid.shape:
        raise ValueError(
            f"operator built for grid {operator.grid.shape}, "
            f"solver grid is {grid.shape}")
    om = operator.model
    if (om.epsilon != model.epsilon or om.kappa != model.kappa
            or om.dim != model.dim
            or om.influence is not model.influence):
        raise ValueError(
            f"operator built for model {om!r}, solver model is {model!r}")


class NonlocalOperator:
    """Applies ``L(u) = c V (W ⊛ u - S u)`` on a uniform grid.

    Parameters
    ----------
    model:
        The continuum model (supplies ``c``, ``eps``, ``J``).
    grid:
        The discretization (supplies ``h``, cell volume, shape).
    stencil:
        Optional precomputed stencil; built from the model/grid if
        omitted.
    backend:
        Kernel backend choice: a registered name (``"direct"``,
        ``"fft"``, ``"sparse"``), ``"auto"`` (radius heuristic — the
        default), or a prebuilt
        :class:`repro.solver.backends.KernelBackend` instance.
    """

    def __init__(self, model: NonlocalHeatModel, grid: UniformGrid,
                 stencil: Optional[NonlocalStencil] = None,
                 backend: Union[str, KernelBackend] = "auto") -> None:
        if stencil is None:
            stencil = build_stencil(grid.h, model.epsilon, model.influence,
                                    dim=model.dim)
        self.model = model
        self.grid = grid
        self.stencil = stencil
        #: combined prefactor ``c * V`` of the discrete sum
        self.scale = model.c * grid.cell_volume
        if isinstance(backend, KernelBackend):
            if backend.stencil is not stencil:
                raise ValueError(
                    "prebuilt backend was assembled for a different stencil")
            if backend.scale != self.scale:
                raise ValueError(
                    f"prebuilt backend was assembled with scale "
                    f"{backend.scale!r}, this operator needs {self.scale!r}")
            self.backend = backend
        else:
            self.backend = make_backend(backend, stencil, self.scale)

    @property
    def radius(self) -> int:
        """Ghost-layer width in DPs."""
        return self.stencil.radius

    @property
    def backend_name(self) -> str:
        """Registry name of the kernel backend executing the applies."""
        return self.backend.name

    def apply(self, u: np.ndarray) -> np.ndarray:
        """``L(u)`` over the full grid; ``u`` has shape ``grid.shape``.

        Points outside the array are treated as zero — the ``Dc``
        boundary condition.
        """
        if u.shape != self.grid.shape:
            raise ValueError(f"field shape {u.shape} != grid {self.grid.shape}")
        return self.backend.apply_full(u)

    def apply_block(self, padded: np.ndarray, radius: Optional[int] = None) -> np.ndarray:
        """``L(u)`` on a block given its padded neighborhood.

        ``padded`` must extend the target block by the stencil radius on
        every side (ghost values from neighbouring SDs, zeros where the
        halo leaves the domain; the whole field padded with zeros is the
        distributed solver's per-step case).  Returns the update for the
        interior block only (shape reduced by ``2*radius`` per axis).
        """
        r = self.radius if radius is None else radius
        if r != self.radius:
            raise ValueError(f"padding radius {r} != stencil radius {self.radius}")
        if padded.shape[0] <= 2 * r or padded.shape[1] <= 2 * r:
            raise ValueError(
                f"padded block {padded.shape} too small for radius {r}")
        return self.backend.apply_padded(padded)

    def flops_per_dp(self) -> float:
        """Approximate floating-point work per DP update.

        One multiply-add per stencil neighbour; used as the work model by
        the simulated cluster so task costs track the actual kernel cost.
        """
        return 2.0 * self.stencil.num_neighbors


def stable_dt(model: NonlocalHeatModel, grid: UniformGrid,
              safety: float = 0.5,
              stencil: Optional[NonlocalStencil] = None) -> float:
    """Forward-Euler stable timestep for the discrete operator.

    The operator's eigenvalues lie in ``[-2 c V S, 0]`` (the convolution
    symbol of a non-negative mask is bounded by ``S`` in magnitude), so
    Euler is stable for ``dt <= 1 / (c V S)``; ``safety`` shrinks that
    bound.  Passing a prebuilt ``stencil`` skips the (re)assembly — used
    by solvers that already hold a cached operator.
    """
    if stencil is None:
        stencil = build_stencil(grid.h, model.epsilon, model.influence,
                                dim=model.dim)
    bound = 1.0 / (model.c * grid.cell_volume * stencil.weight_sum)
    return safety * bound
