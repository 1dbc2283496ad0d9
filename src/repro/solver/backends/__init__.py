"""Pluggable high-performance kernel backends.

Interchangeable implementations of the padded-block nonlocal operator
apply ``L(u) = c V (W ⊛ u - S u)`` behind one interface
(:class:`KernelBackend`), selected per run via the ``kernel_backend``
field on :class:`repro.experiments.ScenarioSpec` or the CLI's
``--backend`` flag:

* ``direct`` — per-call dense convolution (the seed implementation);
* ``fft``    — precomputed mask FFT per apply shape, the large-horizon
  winner (3-17x at ``eps = 8h``);
* ``sparse`` — cached CSR matvec with the full operator folded in;
* ``auto``   — radius heuristic (``fft`` for R >= 3, else ``direct``).

All backends are validated against :func:`apply_operator_reference`
and against each other by the golden/property suites in
``tests/solver``.  Virtual-time task costs in the simulated cluster
remain neighbor-count-based and backend-independent, so schedules and
makespans do not change with the backend — only real wall-clock
numerics do.
"""

from .base import (ConvolutionKernelBackend, KernelBackend,
                   apply_operator_reference)
from .registry import (AUTO, auto_backend_name, backend_names,
                       get_backend_class, make_backend, register_backend)

# importing the implementations registers them
from .direct import DirectBackend
from .fft import FFTBackend
from .sparse import SparseBackend

__all__ = [
    "KernelBackend", "ConvolutionKernelBackend", "apply_operator_reference",
    "AUTO", "register_backend", "backend_names", "get_backend_class",
    "auto_backend_name", "make_backend",
    "DirectBackend", "FFTBackend", "SparseBackend",
]
