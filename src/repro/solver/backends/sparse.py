"""Sparse-matrix backend: the whole operator as one cached CSR matvec.

The operator is linear, so ``L(u) = A u`` for an explicit matrix that
folds the convolution weights, the ``-S`` diagonal, and the ``c V``
scale into one CSR apply.  Matrices are assembled vectorized (one COO
slab per mask offset) and cached per input shape — a time-stepper pays
the assembly once and then runs pure ``csr_matvec``.

This is the backend of choice when an explicit matrix is wanted anyway
(cross-validation, spectral analysis); for raw throughput on large
grids the FFT backend wins, which is why ``auto`` never selects sparse
(see ``registry.auto_backend_name``).  ``scipy.sparse`` is imported by
the first assembly, so only runs that pick this backend load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from .base import KernelBackend
from .registry import register_backend

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["SparseBackend"]

#: Per-instance cap on cached matrices (full grids and padded blocks).
_MAX_MATRICES = 16


@register_backend("sparse")
class SparseBackend(KernelBackend):
    """Precomputed CSR apply, cached per (kind, shape)."""

    def __init__(self, stencil, scale) -> None:
        super().__init__(stencil, scale)
        self._matrices: Dict[Tuple[str, int, int], sp.csr_matrix] = {}

    # -- assembly ----------------------------------------------------------
    def _offsets(self):
        """``(dy, dx, w)`` per non-zero mask entry, center-relative."""
        mask = self.stencil.mask
        cy, cx = mask.shape[0] // 2, mask.shape[1] // 2
        for my in range(mask.shape[0]):
            for mx in range(mask.shape[1]):
                w = mask[my, mx]
                if w != 0.0:
                    yield my - cy, mx - cx, w

    def _cache(self, key, build):
        A = self._matrices.get(key)
        if A is None:
            if len(self._matrices) >= _MAX_MATRICES:
                self._matrices.pop(next(iter(self._matrices)))
            A = build()
            self._matrices[key] = A
        return A

    def _full_matrix(self, shape: Tuple[int, int]) -> sp.csr_matrix:
        """``A`` with ``L(u).ravel() = A @ u.ravel()`` (zero extension)."""
        def build():
            import scipy.sparse as sp
            ny, nx = shape
            n = ny * nx
            idx = np.arange(n).reshape(ny, nx)
            rows, cols, vals = [], [], []
            for dy, dx, w in self._offsets():
                # conv[i] += w * u[i - d]; clip to the array (Dc = 0)
                y0, y1 = max(0, dy), ny + min(0, dy)
                x0, x1 = max(0, dx), nx + min(0, dx)
                if y0 >= y1 or x0 >= x1:
                    continue
                dst = idx[y0:y1, x0:x1].ravel()
                src = idx[y0 - dy:y1 - dy, x0 - dx:x1 - dx].ravel()
                rows.append(dst)
                cols.append(src)
                vals.append(np.full(dst.size, w))
            diag = np.arange(n)
            rows.append(diag)
            cols.append(diag)
            vals.append(np.full(n, -self.stencil.weight_sum))
            A = sp.coo_matrix(
                (self.scale * np.concatenate(vals),
                 (np.concatenate(rows), np.concatenate(cols))),
                shape=(n, n))
            return A.tocsr()
        return self._cache(("full",) + tuple(shape), build)

    def _padded_matrix(self, pshape: Tuple[int, int]) -> sp.csr_matrix:
        """``A`` mapping a ghost-padded block to its interior update.

        Every interior point's whole neighborhood lies inside the
        padded array (that is what the ghost layer guarantees), so no
        clipping occurs — rows are dense in the stencil.
        """
        def build():
            import scipy.sparse as sp
            r = self.stencil.radius
            py, px = pshape
            oy, ox = py - 2 * r, px - 2 * r
            pidx = np.arange(py * px).reshape(py, px)
            out = np.arange(oy * ox)
            rows, cols, vals = [], [], []
            for dy, dx, w in self._offsets():
                src = pidx[r - dy:r - dy + oy, r - dx:r - dx + ox].ravel()
                rows.append(out)
                cols.append(src)
                vals.append(np.full(out.size, w))
            core = pidx[r:py - r, r:px - r].ravel()
            rows.append(out)
            cols.append(core)
            vals.append(np.full(out.size, -self.stencil.weight_sum))
            A = sp.coo_matrix(
                (self.scale * np.concatenate(vals),
                 (np.concatenate(rows), np.concatenate(cols))),
                shape=(oy * ox, py * px))
            return A.tocsr()
        return self._cache(("padded",) + tuple(pshape), build)

    # -- applies -----------------------------------------------------------
    def apply_full(self, u: np.ndarray) -> np.ndarray:
        A = self._full_matrix(u.shape)
        return (A @ u.reshape(-1)).reshape(u.shape)

    def apply_padded(self, padded: np.ndarray) -> np.ndarray:
        r = self.stencil.radius
        out_shape = (padded.shape[0] - 2 * r, padded.shape[1] - 2 * r)
        A = self._padded_matrix(padded.shape)
        return (A @ padded.reshape(-1)).reshape(out_shape)
