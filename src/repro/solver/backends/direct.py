"""Dense-convolution backend: the seed implementation, unchanged.

``scipy.signal.oaconvolve`` (overlap-add, with scipy choosing direct vs
FFT per call) applied to the raw field.  Stateless — no per-shape plans
or matrices — which makes it the safe default for tiny stencils and the
numerics baseline the other backends are validated against.

``scipy.signal`` is the costliest scipy module to import (about 1 s
cold, see DESIGN.md, *Cold start*) and only this backend uses it, so
each apply imports it: runs that never pick ``direct`` never load it.
"""

from __future__ import annotations

import numpy as np

from .base import ConvolutionKernelBackend
from .registry import register_backend

__all__ = ["DirectBackend"]


@register_backend("direct")
class DirectBackend(ConvolutionKernelBackend):
    """Per-call dense convolution via ``oaconvolve``."""

    def _convolve_same(self, u: np.ndarray) -> np.ndarray:
        from scipy.signal import oaconvolve
        return oaconvolve(u, self.stencil.mask, mode="same")

    def _convolve_valid(self, padded: np.ndarray) -> np.ndarray:
        from scipy.signal import oaconvolve
        return oaconvolve(padded, self.stencil.mask, mode="valid")
