"""Discretization substrate: grids, sub-domains, stencils, decomposition.

Implements the paper's Sec. 3.1 uniform-grid discretization and the
Sec. 4/6 formalism — SPs (per-node sub-problems), SDs (sub-domains, the
unit of work and exchange), DPs (discretized points), ghost regions, and
the Case-1/Case-2 dependent/independent DP split.
"""

from .decomposition import BYTES_PER_DP, Decomposition, check_parts
from .domain import DomainMask
from .grid import UniformGrid
from .stencil import NonlocalStencil, build_stencil
from .subdomain import HaloTable, Rect, SubdomainGrid

__all__ = [
    "BYTES_PER_DP", "Decomposition", "check_parts",
    "DomainMask",
    "UniformGrid", "NonlocalStencil", "build_stencil",
    "HaloTable", "Rect", "SubdomainGrid",
]
