"""FFT backend: precomputed mask transform per apply shape.

The dense path recomputes the mask's FFT (and its overlap-add
chunking) on every call; a time-stepping solver applies the *same*
mask to the *same* shapes thousands of times.  This backend computes
the convolution as one ``rfft2``/``irfft2`` pair at an FFT-friendly
size (``scipy.fft.next_fast_len``), caching the mask's transform per
FFT shape.  At the paper's horizon (``eps = 8h``,
17x17 masks) this wins 3-17x over the dense path on every grid the
benchmarks touch (``benchmarks/bench_kernel_backends.py``).

For ``same``, the transform spans the full linear result (input plus
mask minus one), so zero padding up to the FFT size is exactly the
zero-extension ``Dc`` boundary condition.  For ``valid``, the input
size suffices: the circular wrap-around lands only where the valid crop
does not look (see ``_convolve_valid``).

``scipy.fft`` is imported by the first apply, not by the constructor:
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

    def _circular(self, u: np.ndarray, min_shape: Tuple[int, int]):
        """Circular convolution of ``u`` and the mask at an FFT-friendly
        size of at least ``min_shape``; the mask transform is cached per
        FFT shape."""
        from scipy import fft as sfft
        fshape = (sfft.next_fast_len(min_shape[0]),
                  sfft.next_fast_len(min_shape[1]))
        H = self._mask_fft.get(fshape)
        if H is None:
            if len(self._mask_fft) >= _MAX_PLANS:
                self._mask_fft.pop(next(iter(self._mask_fft)))
            H = sfft.rfft2(self.stencil.mask, s=fshape)
            self._mask_fft[fshape] = H
        spectrum = sfft.rfft2(u, s=fshape)
        spectrum *= H
        return sfft.irfft2(spectrum, s=fshape, overwrite_x=True)

    def _convolve_same(self, u: np.ndarray) -> np.ndarray:
        # at ``u + mask - 1`` the circular result is the full linear one
        mh, mw = self.stencil.mask.shape
        full = self._circular(u, (u.shape[0] + mh - 1, u.shape[1] + mw - 1))
        oy, ox = mh // 2, mw // 2
        return full[oy:oy + u.shape[0], ox:ox + u.shape[1]]

    def _convolve_valid(self, padded: np.ndarray) -> np.ndarray:
        # at ``N >= padded`` per axis, the linear result's tail beyond N
        # wraps onto indices below ``mask - 1`` only, which the valid
        # crop drops: no need to transform the full ``padded + mask - 1``
        mh, mw = self.stencil.mask.shape
        circ = self._circular(padded, padded.shape)
        return circ[mh - 1:padded.shape[0], mw - 1:padded.shape[1]]
