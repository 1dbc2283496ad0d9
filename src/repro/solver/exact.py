"""Manufactured exact solution and error norms (paper Sec. 3.2).

The paper validates the solver against

    w(t, x) = cos(2 pi t) sin(2 pi x1) sin(2 pi x2)    on D, 0 outside,

with the heat source ``b`` chosen (eq. 6) so ``u = w`` solves eq. (1)
exactly.  This module provides:

* :class:`ManufacturedProblem` — bundles ``u0``, ``b(t)``, and the exact
  field ``w(t)`` on a grid.  Two source modes:

  - ``"discrete"``: ``b = dw/dt - L_h w`` with the *discrete* operator;
    the numerical solution then matches ``w`` up to time-integration
    error only (used to isolate time error in tests).
  - ``"continuum"``: ``b = dw/dt - c ∫ J (w(y)-w(x)) dy`` with the
    continuum integral evaluated by oversampled midpoint quadrature on a
    refined grid (handles the boundary truncation of the ball exactly as
    the continuum does).  ``w`` is separable, so the quadrature at the
    coarse DPs is the small matrix product ``S_y · mask · S_xᵀ``, not a
    convolution of the whole refined field.  This is the paper's
    setting; the numerical error then shows the spatial-discretization
    convergence of Fig. 8.

* :func:`interior_multiplier` — the closed-form Fourier-multiplier value
  of the ball integral for interior points (Bessel ``J1`` in 2-D), used
  to cross-validate the quadrature.  It is the only caller of
  ``scipy.special`` and imports it when called, so importing this module
  loads no scipy module.

* :func:`step_error` / :func:`total_error` — eq. (7).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..mesh.grid import UniformGrid
from ..mesh.stencil import build_stencil
from .kernel import NonlocalOperator
from .model import NonlocalHeatModel

__all__ = ["ManufacturedProblem", "interior_multiplier", "step_error",
           "total_error"]


def _spatial_factor(X: np.ndarray, Y: Optional[np.ndarray], dim: int) -> np.ndarray:
    if dim == 1:
        return np.sin(2 * np.pi * X)
    return np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)


def interior_multiplier(model: NonlocalHeatModel) -> float:
    """Closed-form ``∫_{B_eps} J(w(y)-w(x)) dy = m * w(x)`` for interior x.

    Only available for the constant influence function, where the ball
    integral of the plane-wave components of ``sin sin`` reduces to a
    Fourier multiplier: in 2-D with wavenumber ``kappa = 2 sqrt(2) pi``,

        m = 2 pi eps^2 J1(kappa eps) / (kappa eps)  -  pi eps^2,

    and in 1-D with ``kappa = 2 pi``: ``m = 2 sin(kappa eps)/kappa - 2 eps``.
    """
    if model.influence.name != "constant":
        raise ValueError("closed form requires the constant influence function")
    eps = model.epsilon
    if model.dim == 2:
        from scipy.special import j1
        kappa = 2.0 * math.sqrt(2.0) * math.pi
        ball = 2.0 * math.pi * eps ** 2 * j1(kappa * eps) / (kappa * eps)
        return float(ball - math.pi * eps ** 2)
    kappa = 2.0 * math.pi
    return float(2.0 * math.sin(kappa * eps) / kappa - 2.0 * eps)


class ManufacturedProblem:
    """Exact solution, initial condition, and source on a specific grid.

    Parameters
    ----------
    model, grid:
        The continuum model and its discretization.
    source_mode:
        ``"discrete"`` or ``"continuum"`` (see module docstring).
    oversample:
        Quadrature refinement factor for the continuum source (the fine
        grid has spacing ``h / oversample``); quadrature error is
        ``O((h/oversample)^2)``, subdominant to the ``O(h^2)``
        discretization error being measured.
    """

    def __init__(self, model: NonlocalHeatModel, grid: UniformGrid,
                 source_mode: str = "continuum", oversample: int = 5) -> None:
        if source_mode not in ("discrete", "continuum"):
            raise ValueError(f"unknown source mode {source_mode!r}")
        if oversample < 1:
            raise ValueError(f"oversample must be >= 1, got {oversample}")
        if oversample % 2 == 0:
            # odd factors align fine cell centers exactly with coarse DPs
            # (even factors would introduce an O(h/q) sampling offset)
            oversample += 1
        self.model = model
        self.grid = grid
        self.source_mode = source_mode
        self.oversample = oversample
        if grid.dim == 1:
            space = _spatial_factor(grid.x_coords()[None, :], None, 1)
        else:
            X, Y = grid.meshgrid()
            space = _spatial_factor(X, Y, 2)
        if source_mode == "discrete":
            integral = NonlocalOperator(model, grid).apply(space)
        else:
            integral = self._continuum_integral_of_space()
        #: ``s = sin ⊗ sin`` and its integral term ``c ∫ J (s(y) - s(x))
        #: dy`` as the rows of one array, so ``b(t)`` is one contraction
        #: with its two time coefficients
        self._basis = np.stack([space.ravel(), integral.ravel()])
        self._space, self._integral_of_space = (
            row.reshape(space.shape) for row in self._basis)

    # -- exact fields ------------------------------------------------------
    # ``exact`` and ``source`` write into ``out`` when given: a grid-shaped
    # float64 array the caller owns, so a time step allocates nothing here
    def exact(self, t: float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``w(t)`` sampled at the DPs."""
        return np.multiply(self._space, math.cos(2 * math.pi * t), out=out)

    def initial_condition(self) -> np.ndarray:
        """``u0 = w(0) = sin sin``."""
        return self._space.copy()

    def source(self, t: float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The manufactured heat source ``b(t)`` of eq. (6)."""
        # both modes: b = dw/dt - (nonlocal integral term applied to w(t));
        # time enters only through the sin/cos prefactors.  einsum, not
        # np.dot: a BLAS gemv is threaded at this size, and on two cores
        # that ran 9x slower than einsum's single-threaded loop
        coef = np.array([-2 * math.pi * math.sin(2 * math.pi * t),
                         -math.cos(2 * math.pi * t)])
        if out is None:
            out = np.empty(self._space.shape)
        np.einsum("k,kn->n", coef, self._basis,
                  out=out.reshape(-1, copy=False))
        return out

    # -- continuum quadrature ---------------------------------------------------
    def _continuum_integral_of_space(self) -> np.ndarray:
        """``c ∫_{B_eps(x)} J (s(y) - s(x)) dy`` at every DP, by quadrature.

        Midpoint quadrature on an ``oversample``-refined grid (spacing
        ``h / q``) resolves the ball and the boundary truncation
        (``w = 0`` on ``Dc``) well below the coarse-grid discretization
        error.  ``q`` is odd, so coarse DP ``i`` is exactly the centre of
        fine cell ``i q + (q - 1) / 2`` and the fine convolution is needed
        only there.  The field is separable, ``s = s_y ⊗ s_x``, and so is
        its zero extension; the sampled convolution is therefore the
        product ``S_y · mask · S_xᵀ`` (``mask · S_xᵀ`` in 1-D), where row
        ``i`` of ``S_x`` holds the fine samples of ``s_x`` that the mask
        columns meet at coarse DP ``i`` (see :func:`_shifted_samples` and
        DESIGN.md, *Manufactured solution*).  The mask itself need not be
        separable, so every influence function works.
        """
        q = self.oversample
        grid = self.grid
        fine_h = grid.h / q
        model = self.model
        # fine stencil of the ball with J weights
        fine_stencil = build_stencil(fine_h, model.epsilon, model.influence,
                                     dim=model.dim)
        mask = fine_stencil.mask
        cell = fine_h if model.dim == 1 else fine_h * fine_h

        S_x = _shifted_samples(grid.nx, q, fine_h, mask.shape[1])
        centre_x = S_x[:, mask.shape[1] // 2]  # s_x at the coarse DPs
        if model.dim == 1:
            conv = mask @ S_x.T
            local = centre_x[None, :]
        else:
            S_y = _shifted_samples(grid.ny, q, fine_h, mask.shape[0])
            conv = S_y @ mask @ S_x.T
            local = np.outer(S_y[:, mask.shape[0] // 2], centre_x)
        ball_weight = fine_stencil.weight_sum  # counts only in-ball cells
        return model.c * (cell * (conv - ball_weight * local))


def _shifted_samples(n: int, q: int, fine_h: float, width: int) -> np.ndarray:
    """``S[i, m] = sin(2 pi x_j)`` for ``j = i q + (q-1)/2 - (m - width//2)``.

    ``x_j = (j + 1/2) fine_h`` is the centre of fine cell ``j`` of the
    ``n q`` cells along one axis, and ``S[i, m] = 0`` where ``j`` falls
    outside ``D``.  Row ``i`` is the 1-D fine field a ``width``-wide mask,
    centred on coarse DP ``i``, meets in a zero-padded ``same``
    convolution: ``(mask ⊛ s)_i = sum_m mask[m] S[i, m]``.
    """
    centre = np.arange(n) * q + (q - 1) // 2
    j = centre[:, None] - np.arange(width)[None, :] + width // 2
    inside = (j >= 0) & (j < n * q)
    return np.where(inside, _spatial_factor((j + 0.5) * fine_h, None, 1), 0.0)


def step_error(grid: UniformGrid, numeric: np.ndarray,
               exact: np.ndarray, out: Optional[np.ndarray] = None) -> float:
    """``e_k = h^d sum_i |u_exact - u_num|^2`` — eq. (7) at one step.

    ``out`` (may be ``exact`` itself) receives the difference; without
    it, a new array does.
    """
    if numeric.shape != exact.shape:
        raise ValueError(f"shape mismatch {numeric.shape} vs {exact.shape}")
    hd = grid.h if grid.dim == 1 else grid.h ** 2
    diff = np.subtract(numeric, exact, out=out).reshape(-1)
    # einsum's own loop: no full-size square, and no BLAS thread pool
    return float(hd * np.einsum("n,n->", diff, diff))


def total_error(errors) -> float:
    """``e = sum_k e_k`` — the quantity plotted in the paper's Fig. 8."""
    return float(np.sum(np.asarray(list(errors), dtype=np.float64)))
