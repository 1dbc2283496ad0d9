"""Slow, direct reference implementations the solver tests compare against.

Neither runs in production; each is written to be audited against the
paper's equations by eye, not to be fast.

* :func:`assemble_sparse_operator` — the explicit matrix of ``L``
  (eq. 5), built one DP at a time;
* :func:`continuum_integral_oaconvolve` — the manufactured source's ball
  integral (Sec. 3.2, eq. 6) as a ``same`` convolution of the whole
  refined field, sampled at the coarse DPs;
* :func:`apply_by_subdomain` — ``L(u)`` assembled SD by SD, each from
  its halo copied into a zero-padded block, as an SD task on a real
  distributed machine would compute it.
"""

import numpy as np
import scipy.sparse as sp
from scipy.signal import oaconvolve

from repro.mesh.grid import UniformGrid
from repro.mesh.stencil import build_stencil
from repro.mesh.subdomain import Rect
from repro.solver.model import NonlocalHeatModel


def assemble_sparse_operator(model: NonlocalHeatModel,
                             grid: UniformGrid) -> sp.csr_matrix:
    """Explicit sparse matrix of ``L``.

    Row-major DP ordering (``idx = iy * nx + ix``).  O(N * stencil) memory
    — for small grids only.
    """
    stencil = build_stencil(grid.h, model.epsilon, model.influence,
                            dim=model.dim)
    ny, nx = grid.shape
    R = stencil.radius
    scale = model.c * grid.cell_volume
    rows, cols, vals = [], [], []
    mask = stencil.mask
    mask_h = mask.shape[0]
    for iy in range(ny):
        for ix in range(nx):
            i = iy * nx + ix
            diag = 0.0
            for my in range(mask_h):
                dy = my - mask_h // 2
                for mx in range(mask.shape[1]):
                    dx = mx - R
                    w = mask[my, mx]
                    if w == 0.0:
                        continue
                    jy, jx = iy + dy, ix + dx
                    diag -= w  # the -S u_i part, all neighbours count
                    if 0 <= jy < ny and 0 <= jx < nx:
                        rows.append(i)
                        cols.append(jy * nx + jx)
                        vals.append(scale * w)
            rows.append(i)
            cols.append(i)
            vals.append(scale * diag)
    n = grid.num_points
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def continuum_integral_oaconvolve(model: NonlocalHeatModel, grid: UniformGrid,
                                  oversample: int) -> np.ndarray:
    """``c ∫_{B_eps(x)} J (s(y) - s(x)) dy`` at every DP, by convolution.

    ``s`` is ``sin(2 pi x)`` (1-D) or ``sin(2 pi x) sin(2 pi y)`` (2-D).
    The field is sampled at every cell centre of the ``oversample``-refined
    grid, convolved with the fine ball mask (zero extension outside D is
    native to a ``same`` convolution), and read back at the fine cells
    whose centres are the coarse DPs.  ``oversample`` must be odd, as
    :class:`repro.solver.exact.ManufacturedProblem` makes it.
    """
    q = oversample
    fine_h = grid.h / q
    fine_stencil = build_stencil(fine_h, model.epsilon, model.influence,
                                 dim=model.dim)
    cell = fine_h if model.dim == 1 else fine_h * fine_h
    xf = (np.arange(grid.nx * q) + 0.5) * fine_h
    if model.dim == 1:
        sf = np.sin(2 * np.pi * xf[None, :])
    else:
        yf = (np.arange(grid.ny * q) + 0.5) * fine_h
        Xf, Yf = np.meshgrid(xf, yf)
        sf = np.sin(2 * np.pi * Xf) * np.sin(2 * np.pi * Yf)
    conv = oaconvolve(sf, fine_stencil.mask, mode="same")
    integral_fine = cell * (conv - fine_stencil.weight_sum * sf)
    # coarse DP i is the centre of fine cell i q + (q - 1) / 2
    idx = np.arange(grid.nx) * q + (q - 1) // 2
    if model.dim == 1:
        sampled = integral_fine[:, idx]
    else:
        idy = np.arange(grid.ny) * q + (q - 1) // 2
        sampled = integral_fine[np.ix_(idy, idx)]
    return model.c * sampled


def apply_by_subdomain(operator, sd_grid, u: np.ndarray,
                       sds=None) -> np.ndarray:
    """``L(u)`` assembled from one ``apply_block`` per SD.

    Each SD copies its halo (its rectangle grown by the stencil radius
    and clipped to the mesh) into
    a block padded by the radius on every side; what the halo leaves
    uncovered stays zero, the ``Dc`` condition.  ``sds`` restricts the
    assembly to those SDs; the others stay zero in the result.
    """
    R = operator.radius
    out = np.zeros_like(u)
    for sd in range(sd_grid.num_subdomains) if sds is None else sds:
        rect = sd_grid.rect(sd)
        halo = Rect(max(0, rect.y0 - R), min(sd_grid.mesh_ny, rect.y1 + R),
                    max(0, rect.x0 - R), min(sd_grid.mesh_nx, rect.x1 + R))
        padded = np.zeros((rect.height + 2 * R, rect.width + 2 * R))
        dy0 = halo.y0 - (rect.y0 - R)
        dx0 = halo.x0 - (rect.x0 - R)
        padded[dy0:dy0 + halo.height,
               dx0:dx0 + halo.width] = u[halo.slices()]
        out[rect.slices()] = operator.apply_block(padded)
    return out
