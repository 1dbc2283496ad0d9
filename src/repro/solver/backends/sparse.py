"""Sparse-matrix backend: the operator as cached CSR matvecs over tiles.

The operator is linear, so ``L(u) = A u`` for an explicit matrix that
folds the convolution weights, the ``-S`` diagonal, and the ``c V``
scale into one CSR apply.  Matrices are assembled vectorized (one COO
slab per mask offset) and cached per tile shape — a time-stepper pays
the assembly once and then runs pure ``csr_matvec``.

One matrix per whole grid would grow with the grid (a 512^2 field takes
gigabytes), so every apply is cut into output tiles of at most
``_TILE x _TILE`` DPs, each reading its own radius-wide rim of a
zero-padded input; equal-shaped tiles share one matrix.  A full-grid
apply is the padded apply of the zero-extended field (the ``Dc``
condition).

For raw throughput on large grids the FFT backend wins, which is why
``auto`` never selects sparse (see ``registry.auto_backend_name``).
``scipy.sparse`` is imported by the first assembly, so only runs that
pick this backend load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from .base import KernelBackend
from .registry import register_backend

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["SparseBackend"]

#: Per-instance cap on cached tile matrices.
_MAX_MATRICES = 16

#: Edge of the output tiles an apply is cut into: a matrix maps at most
#: ``_TILE**2`` outputs.
_TILE = 64


@register_backend("sparse")
class SparseBackend(KernelBackend):
    """Precomputed CSR applies, cached per padded tile shape."""

    def __init__(self, stencil, scale) -> None:
        super().__init__(stencil, scale)
        self._matrices: Dict[Tuple[int, int], sp.csr_matrix] = {}

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
        return self._cache(tuple(pshape), build)

    # -- applies -----------------------------------------------------------
    def apply_full(self, u: np.ndarray) -> np.ndarray:
        return self.apply_padded(np.pad(u, self.stencil.radius))

    def apply_padded(self, padded: np.ndarray) -> np.ndarray:
        r = self.stencil.radius
        oy, ox = padded.shape[0] - 2 * r, padded.shape[1] - 2 * r
        out = np.empty((oy, ox))
        for y0 in range(0, oy, _TILE):
            h = min(_TILE, oy - y0)
            for x0 in range(0, ox, _TILE):
                w = min(_TILE, ox - x0)
                tile = padded[y0:y0 + h + 2 * r, x0:x0 + w + 2 * r]
                A = self._padded_matrix(tile.shape)
                out[y0:y0 + h, x0:x0 + w] = (
                    A @ tile.reshape(-1)).reshape(h, w)
        return out
