"""FFT backend: precomputed mask transform per apply shape.

The dense path recomputes the mask's FFT (and its overlap-add
chunking) on every call; a time-stepping solver applies the *same*
mask to the *same* shapes thousands of times.  This backend computes
the full linear convolution as one ``rfft2``/``irfft2`` pair at an
FFT-friendly padded size (``scipy.fft.next_fast_len``), caching the
mask's transform per FFT shape.  At the paper's horizon (``eps = 8h``,
17x17 masks) this wins 3-17x over the dense path on every grid the
benchmarks touch (``benchmarks/bench_kernel_backends.py``).

Zero padding up to the FFT size is exactly the zero-extension ``Dc``
boundary condition, so no correction terms are needed; the ``same`` /
``valid`` crops below select the standard convolution windows from the
full linear result.

``scipy.fft`` is imported by the first plan, not by the constructor:
scenarios that build an FFT operator but never apply it (schedule-only
runs with ``compute_numerics=False``) never load it.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .base import ConvolutionKernelBackend
from .registry import register_backend

__all__ = ["FFTBackend"]

#: Cached mask transforms kept per backend instance; distinct SD block
#: shapes in one run are few, but cap the table so a pathological
#: caller cannot grow it without bound.
_MAX_PLANS = 32


@register_backend("fft")
class FFTBackend(ConvolutionKernelBackend):
    """Convolution via cached real-to-complex mask transforms."""

    def __init__(self, stencil, scale) -> None:
        super().__init__(stencil, scale)
        #: fft shape -> rfft2 of the zero-padded mask
        self._mask_fft: Dict[Tuple[int, int], np.ndarray] = {}

    def _plan(self, in_shape: Tuple[int, int]):
        """``(fft_shape, mask_fft)`` for an input of ``in_shape``."""
        from scipy import fft as sfft
        mh, mw = self.stencil.mask.shape
        fshape = (sfft.next_fast_len(in_shape[0] + mh - 1),
                  sfft.next_fast_len(in_shape[1] + mw - 1))
        H = self._mask_fft.get(fshape)
        if H is None:
            if len(self._mask_fft) >= _MAX_PLANS:
                self._mask_fft.pop(next(iter(self._mask_fft)))
            H = sfft.rfft2(self.stencil.mask, s=fshape)
            self._mask_fft[fshape] = H
        return fshape, H

    def _convolve_full(self, u: np.ndarray) -> np.ndarray:
        """The full linear convolution (shape ``u.shape + mask - 1``)."""
        from scipy import fft as sfft
        fshape, H = self._plan(u.shape)
        return sfft.irfft2(sfft.rfft2(u, s=fshape) * H, s=fshape)

    def _convolve_same(self, u: np.ndarray) -> np.ndarray:
        mh, mw = self.stencil.mask.shape
        full = self._convolve_full(u)
        oy, ox = mh // 2, mw // 2
        return full[oy:oy + u.shape[0], ox:ox + u.shape[1]]

    def _convolve_valid(self, padded: np.ndarray) -> np.ndarray:
        mh, mw = self.stencil.mask.shape
        full = self._convolve_full(padded)
        return full[mh - 1:padded.shape[0], mw - 1:padded.shape[1]]
