"""Backend interface and the reference numerics oracle.

A *kernel backend* is one interchangeable implementation of the
discrete nonlocal operator application

    L(u)_i = scale * [ (W ⊛ u)_i  -  S * u_i ]

where ``W`` is the stencil mask, ``S = sum(W)`` and ``scale = c * V``
(see :mod:`repro.solver.kernel`).  The convolution convention is the
true linear convolution with zero extension outside the array (the
``Dc`` boundary condition), exactly as computed by
``scipy.signal.oaconvolve``: ``(W ⊛ u)_i = sum_d W[center + d] u_{i-d}``.

Two entry points cover every solver in the repository:

* :meth:`KernelBackend.apply_full` — ``L(u)`` over a whole grid
  (mode ``same``), used by the serial solver and the manufactured
  source;
* :meth:`KernelBackend.apply_padded` — ``L(u)`` for the interior of a
  padded array (mode ``valid``): one SD block with its ghosts, or the
  whole field with a zero rim, as the distributed solver applies it
  once per step.

All backends must agree with :func:`apply_operator_reference` — an
independent shifted-slice implementation kept free of ``scipy`` — to
near machine precision; the golden and property suites in
``tests/solver`` enforce this.

Single-row masks (the 1-D model, shape ``(1, 2k+1)``) are part of the
contract: a valid convolution only shrinks the axes the mask spans, so
the padded apply trims the y halo explicitly.  This is the corrected
1-D path — the previous dense implementation returned a block of shape
``(1 + 2R, w)`` instead of ``(1, w)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ...mesh.stencil import NonlocalStencil

__all__ = ["KernelBackend", "ConvolutionKernelBackend",
           "apply_operator_reference"]


class KernelBackend(ABC):
    """One implementation of the nonlocal operator apply.

    Parameters
    ----------
    stencil:
        The precomputed interaction mask (supplies ``W``, ``R``, ``S``).
    scale:
        The combined prefactor ``c * V`` of the discrete sum.

    Backends may precompute per-shape state lazily (mask FFTs, sparse
    matrices); instances are therefore cheap to construct and amortize
    over repeated applies of the same shape — exactly the access
    pattern of a time-stepping solver.
    """

    #: registry name, set by the ``register_backend`` decorator
    name = "abstract"

    def __init__(self, stencil: NonlocalStencil, scale: float) -> None:
        self.stencil = stencil
        self.scale = float(scale)

    @abstractmethod
    def apply_full(self, u: np.ndarray) -> np.ndarray:
        """``L(u)`` over the full grid (zero extension outside)."""

    @abstractmethod
    def apply_padded(self, padded: np.ndarray) -> np.ndarray:
        """``L(u)`` for the interior block of a ghost-padded array.

        ``padded`` extends the target block by the stencil radius ``R``
        on every side; the result has shape ``padded.shape - 2R`` per
        axis.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} R={self.stencil.radius}>"


class ConvolutionKernelBackend(KernelBackend):
    """Template for backends that compute the convolution explicitly.

    Subclasses provide the raw ``same``/``valid`` convolutions; the
    ``- S u`` correction, the scale, and the single-row-mask halo trim
    live here so every convolution backend shares the corrected 1-D
    path.
    """

    @abstractmethod
    def _convolve_same(self, u: np.ndarray) -> np.ndarray:
        """Linear convolution with the mask, cropped to ``u.shape``.

        Both convolutions may return a view of a buffer the backend
        reuses on its next call; :meth:`_finish` copies it out.
        """

    @abstractmethod
    def _convolve_valid(self, padded: np.ndarray) -> np.ndarray:
        """Linear convolution restricted to fully overlapping offsets."""

    def apply_full(self, u: np.ndarray) -> np.ndarray:
        return self._finish(self._convolve_same(u), u)

    def apply_padded(self, padded: np.ndarray) -> np.ndarray:
        r = self.stencil.radius
        conv = self._convolve_valid(padded)
        if self.stencil.mask.shape[0] == 1 and r > 0:
            # a single-row mask does not shrink the y axis under a
            # valid convolution; cut the y halo explicitly (1-D model)
            conv = conv[r:-r, :]
        core = padded[r:-r, r:-r] if r > 0 else padded
        return self._finish(conv, core)

    def _finish(self, conv: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``scale * (conv - S u)`` in one new array.

        The same IEEE results as the expression (negation is exact and
        addition and multiplication commute), without its full-size
        temporaries.
        """
        out = u * -self.stencil.weight_sum
        out += conv
        out *= self.scale
        return out


def apply_operator_reference(stencil: NonlocalStencil, scale: float,
                             u: np.ndarray) -> np.ndarray:
    """Independent full-grid apply: the oracle every backend must match.

    Plain shifted-slice accumulation with explicit zero extension and no
    ``scipy`` involvement — slow (one pass per mask entry) but direct
    enough to audit against eq. (5) by eye.  Used by the golden-fixture
    generator and the property-based equivalence suite.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError(f"field must be 2-D, got shape {u.shape}")
    mask = stencil.mask
    cy, cx = mask.shape[0] // 2, mask.shape[1] // 2
    ny, nx = u.shape
    conv = np.zeros_like(u)
    for my in range(mask.shape[0]):
        for mx in range(mask.shape[1]):
            w = mask[my, mx]
            if w == 0.0:
                continue
            dy, dx = my - cy, mx - cx
            # conv[i] += w * u[i - d], zero outside the array
            y0, y1 = max(0, dy), ny + min(0, dy)
            x0, x1 = max(0, dx), nx + min(0, dx)
            if y0 >= y1 or x0 >= x1:
                continue
            conv[y0:y1, x0:x1] += w * u[y0 - dy:y1 - dy, x0 - dx:x1 - dx]
    return scale * (conv - stencil.weight_sum * u)
