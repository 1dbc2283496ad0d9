"""Nonlocal neighborhood stencils: the discrete ball ``B_eps(x)``.

Equation (5) of the paper sums ``J(|x_j - x_i| / eps) (u_j - u_i) V_j``
over all DPs within the horizon ``eps``.  On a uniform grid this is a
fixed stencil: an offset mask of shape ``(2R+1, 2R+1)`` with
``R = floor(eps / h)``, whose entry at offset ``d`` is ``J(|d| h / eps)``
if ``|d| h <= eps`` (center excluded — its term vanishes).

The stencil is precomputed once per (h, eps, J) and reused every timestep
by both the dense convolution kernel and the sparse-matrix reference
implementation.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

__all__ = ["NonlocalStencil", "build_stencil"]


class NonlocalStencil:
    """Precomputed nonlocal interaction weights on a uniform grid.

    Attributes
    ----------
    mask:
        ``(2R+1, 2R+1)`` float64 array of ``J`` values; zero outside the
        ball and at the center.
    radius:
        ``R = floor(eps / h)`` in index units — the ghost-layer width the
        distributed solver must exchange.
    weight_sum:
        ``S = mask.sum()``; the ``u_i`` coefficient in the kernel
        ``c V (W * u - S u)``.
    """

    def __init__(self, mask: np.ndarray, h: float, epsilon: float) -> None:
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
        if mask.shape[0] not in (1, mask.shape[1]):
            raise ValueError(f"mask must be square or a single row, got {mask.shape}")
        if mask.shape[1] % 2 != 1:
            raise ValueError("mask side length must be odd")
        self.mask = np.asarray(mask, dtype=np.float64)
        self.h = float(h)
        self.epsilon = float(epsilon)
        self.radius = mask.shape[1] // 2
        self.weight_sum = float(self.mask.sum())

    @property
    def num_neighbors(self) -> int:
        """Number of interacting DPs in the ball (non-zero mask entries)."""
        return int(np.count_nonzero(self.mask))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<NonlocalStencil R={self.radius} "
                f"neighbors={self.num_neighbors} S={self.weight_sum:.4g}>")


def build_stencil(h: float, epsilon: float,
                  influence: Callable[[np.ndarray], np.ndarray],
                  dim: int = 2) -> NonlocalStencil:
    """Construct the stencil for grid spacing ``h`` and horizon ``epsilon``.

    Parameters
    ----------
    h:
        Grid spacing (> 0).
    epsilon:
        Nonlocal horizon (>= h; the paper uses ``eps = 8 h``).
    influence:
        Vectorized influence function ``J(r)`` on normalized distance
        ``r = |y - x| / eps`` in ``[0, 1]``; see
        :mod:`repro.solver.model` for the standard choices.
    dim:
        With ``dim=1`` only the central row of offsets is retained (the
        1-D nonlocal diffusion model).

    Notes
    -----
    Inclusion uses ``|d| h <= eps`` with a tiny relative tolerance so that
    the common exact-multiple case (``eps = 8 h``) includes the DP at
    distance exactly ``eps``, matching the paper's ``|x_j - x_i| <= eps``.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if epsilon < h:
        raise ValueError(f"epsilon ({epsilon}) must be >= h ({h})")
    radius = int(np.floor(epsilon / h * (1 + 1e-12)))
    side = 2 * radius + 1
    offsets = np.arange(-radius, radius + 1)
    if dim == 2:
        dy, dx = np.meshgrid(offsets, offsets, indexing="ij")
        dist = np.hypot(dx, dy) * h
    elif dim == 1:
        dx = offsets[None, :]
        dist = np.abs(dx) * h
        dist = np.broadcast_to(dist, (1, side)).copy()
    else:
        raise ValueError(f"dim must be 1 or 2, got {dim}")

    inside = dist <= epsilon * (1 + 1e-12)
    r = np.where(inside, dist / epsilon, 0.0)
    mask = np.where(inside, influence(r), 0.0).astype(np.float64)
    if dim == 2:
        mask[radius, radius] = 0.0  # center: (u_i - u_i) contributes nothing
    else:
        mask[0, radius] = 0.0
        full = np.zeros((1, side))
        full[0, :] = mask[0, :]
        mask = full
    if np.any(mask < 0):
        raise ValueError("influence function produced negative weights")
    return NonlocalStencil(mask, h, epsilon)
