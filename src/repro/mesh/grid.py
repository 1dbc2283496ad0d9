"""Uniform grid discretization of the material domain (paper Sec. 3.1).

The paper discretizes ``D = [0,1]^2`` with a uniform grid of spacing ``h``
and surrounds it with the nonlocal boundary ``Dc = (-eps, 1+eps)^2 - D``
where the temperature is pinned to zero (Fig. 1).

We use a **cell-centered** grid: ``nx × ny`` discretized points (DPs) at
``x = (i + 1/2) h``.  The paper's nodal grid (``x_i = h i``) differs only
in where points sit relative to the boundary; cell centering gives exactly
``V_j = h^2`` per DP and lets the mesh divide evenly into the paper's SD
sizes (e.g. 400×400 DPs into 8×8 SDs of 50×50), so all SD bookkeeping is
exact.  The zero condition on ``Dc`` becomes zero-extension outside the
``nx × ny`` array, which the convolution kernels implement natively.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["UniformGrid"]


class UniformGrid:
    """Cell-centered uniform grid on the unit square (or a 1-D interval).

    Parameters
    ----------
    nx, ny:
        Number of DPs along x and y.  ``ny=1`` with ``dim=1`` gives the
        1-D model from eq. (2).
    dim:
        Spatial dimension (1 or 2); controls ``h`` and cell volume.

    Attributes
    ----------
    h:
        Grid spacing, ``1 / nx`` (the domain is the unit square/interval;
        ``ny`` must then satisfy ``ny * h == 1`` in 2-D, i.e. ``ny == nx``
        for the square; rectangular meshes use ``Ly = ny * h``).
    """

    def __init__(self, nx: int, ny: int = 1, dim: int = 2) -> None:
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        if nx < 1 or ny < 1:
            raise ValueError(f"grid must be at least 1x1, got {nx}x{ny}")
        if dim == 1 and ny != 1:
            raise ValueError("1-D grids must have ny == 1")
        self.nx = nx
        self.ny = ny
        self.dim = dim
        self.h = 1.0 / nx
        #: domain extents; x is always [0, 1], y is [0, ny*h]
        self.Lx = 1.0
        self.Ly = ny * self.h if dim == 2 else 0.0

    @property
    def shape(self) -> Tuple[int, int]:
        """Array shape ``(ny, nx)`` used for temperature fields."""
        return (self.ny, self.nx)

    @property
    def num_points(self) -> int:
        """Total number of DPs."""
        return self.nx * self.ny

    @property
    def cell_volume(self) -> float:
        """``V_j`` in eq. (5): ``h`` in 1-D, ``h^2`` in 2-D."""
        return self.h if self.dim == 1 else self.h * self.h

    def x_coords(self) -> np.ndarray:
        """Cell-center x coordinates, shape ``(nx,)``."""
        return (np.arange(self.nx) + 0.5) * self.h

    def y_coords(self) -> np.ndarray:
        """Cell-center y coordinates, shape ``(ny,)``."""
        return (np.arange(self.ny) + 0.5) * self.h

    def meshgrid(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(X, Y)`` arrays of shape ``(ny, nx)`` with DP coordinates."""
        return np.meshgrid(self.x_coords(), self.y_coords())

    def zeros(self) -> np.ndarray:
        """A zero temperature field of the right shape/dtype."""
        return np.zeros(self.shape)

    def field_from_function(self, fn) -> np.ndarray:
        """Evaluate ``fn(x, y)`` (vectorized) at every DP.

        In 1-D, ``fn`` is called as ``fn(x)`` with the y row dropped.
        """
        if self.dim == 1:
            return np.asarray(fn(self.x_coords()))[None, :]
        X, Y = self.meshgrid()
        return np.asarray(fn(X, Y))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UniformGrid {self.nx}x{self.ny} h={self.h:.4g} dim={self.dim}>"
