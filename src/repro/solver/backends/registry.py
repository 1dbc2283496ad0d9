"""Kernel-backend registry and the radius heuristic behind ``"auto"``.

Selection follows :class:`repro.registry.Registry`: explicit names
(``"direct"``, ``"fft"``, ``"sparse"``) are honored as-is, ``"auto"``
resolves by the measured heuristic of :func:`auto_backend_name` (see
DESIGN.md, *Kernel backends*).
"""

from __future__ import annotations

from ...mesh.stencil import NonlocalStencil
from ...registry import AUTO, Registry
from .base import KernelBackend

__all__ = ["AUTO", "REGISTRY", "register_backend", "backend_names",
           "get_backend_class", "auto_backend_name", "make_backend"]

REGISTRY = Registry("kernel backend")
register_backend = REGISTRY.register
backend_names = REGISTRY.names
get_backend_class = REGISTRY.get


def auto_backend_name(radius: int) -> str:
    """The heuristic behind ``"auto"``: pick by stencil radius.

    Measured on the repository's shapes (see DESIGN.md and
    ``benchmarks/bench_kernel_backends.py``): the FFT backend's
    precomputed mask transform beats the dense convolution by 3-17x
    once the mask is non-trivial, while at very small radii (R <= 2,
    masks up to 5x5) the dense path is already cheap and carries no
    per-shape plan state.  The sparse backend is never auto-selected:
    its O(N * stencil) matrix pays off only when explicitly requested
    for repeated small-block applies or as a cross-check.

    Taking the radius (not the stencil) lets callers that know the
    radius without assembling anything — like the experiment runner's
    operator cache, where ``R = floor(eps_factor)`` — resolve ``auto``
    up front and share one memoized operator with explicit requests
    for the same name.
    """
    return "fft" if radius >= 3 else "direct"


def make_backend(name: str, stencil: NonlocalStencil,
                 scale: float) -> KernelBackend:
    """Instantiate the backend ``name`` resolves to for this stencil."""
    resolved = auto_backend_name(stencil.radius) if name == AUTO else name
    return get_backend_class(resolved)(stencil, scale)
