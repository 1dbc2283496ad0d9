"""FFT backend: one cached transform plan per FFT shape.

The dense path recomputes the mask's FFT (and its overlap-add
chunking) on every call; a time-stepping solver applies the *same*
mask to the *same* shapes thousands of times.  This backend computes
the convolution as one real-to-complex transform pair at an
FFT-friendly size (:func:`_next_fast_len`), with ``numpy.fft``.  At the
paper's horizon (``eps = 8h``, 17x17 masks) this wins 3-17x over the
dense path on every grid the benchmarks touch
(``benchmarks/bench_kernel_backends.py``).

Each FFT shape has a plan holding the mask's spectrum, a complex
spectrum buffer and the real circular-result buffer.  A transform
writes ``rfft`` along x into the spectrum buffer, then transforms,
multiplies and inverse-transforms along y in place, and ends with an
``irfft`` along x into the result buffer: an apply allocates no
full-size array besides the one it returns (the ``- S u`` finish in
:class:`~repro.solver.backends.base.ConvolutionKernelBackend`).  The
arithmetic is ``numpy.fft.rfft2``/``irfft2``'s, axis by axis.

For ``same``, the transform spans the full linear result (input plus
mask minus one).  ``rfft`` zero-pads each row up to the FFT width, and
the spectrum rows below the input are zeroed: together that is exactly
the zero-extension ``Dc`` boundary condition.  For ``valid``, the input
size suffices: the circular wrap-around lands only where the valid crop
does not look (see ``_convolve_valid``).

``numpy.fft`` ships with numpy, so no apply loads a scipy module.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .base import ConvolutionKernelBackend
from .registry import register_backend

__all__ = ["FFTBackend"]

#: Cached plans kept per backend instance; distinct SD block shapes in
#: one run are few, but cap the table so a pathological caller cannot
#: grow it without bound.
_MAX_PLANS = 32

#: prime factors pocketfft has dedicated passes for
_FAST_PRIMES = (2, 3, 5, 7, 11)


def _next_fast_len(n: int) -> int:
    """The smallest ``2^a 3^b 5^c 7^d 11^e >= n`` — what
    ``scipy.fft.next_fast_len(n)`` returns for complex transforms."""
    m = n
    while True:
        rest = m
        for p in _FAST_PRIMES:
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


@register_backend("fft")
class FFTBackend(ConvolutionKernelBackend):
    """Convolution via cached real-to-complex transform plans."""

    def __init__(self, stencil, scale) -> None:
        super().__init__(stencil, scale)
        #: fft shape -> (mask spectrum, spectrum buffer, circular result)
        self._plans: Dict[Tuple[int, int],
                          Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _circular(self, u: np.ndarray, min_shape: Tuple[int, int]):
        """Circular convolution of ``u`` and the mask at an FFT-friendly
        size of at least ``min_shape``.  The result is the plan's buffer:
        it holds until the next apply at the same FFT shape."""
        fshape = (_next_fast_len(min_shape[0]), _next_fast_len(min_shape[1]))
        plan = self._plans.get(fshape)
        if plan is None:
            if len(self._plans) >= _MAX_PLANS:
                self._plans.pop(next(iter(self._plans)))
            spectrum = np.fft.rfft2(self.stencil.mask, s=fshape)
            plan = (spectrum, np.empty_like(spectrum), np.empty(fshape))
            self._plans[fshape] = plan
        H, spec, circ = plan
        rows, fx = u.shape[0], fshape[1]
        np.fft.rfft(u, n=fx, axis=1, out=spec[:rows])
        spec[rows:] = 0.0
        np.fft.fft(spec, axis=0, out=spec)
        spec *= H
        np.fft.ifft(spec, axis=0, out=spec)
        return np.fft.irfft(spec, n=fx, axis=1, out=circ)

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
