"""Non-square domains via SD-level activity masks (paper future work).

The paper's conclusion lists "more complex non-square domains" as future
work.  At SD granularity this is an activity mask: SDs outside the
physical domain are *inactive* — they hold no DPs to update, exchange no
ghosts, and carry zero vertex weight in the partitioner.  The
temperature there is pinned to zero, which extends the ``Dc`` condition
to the internal voids (e.g. the notch of an L-shaped plate).

:class:`DomainMask` provides shape factories (L-shape, disc, halo of a
crack), conversion to partitioner vertex weights, and the active-SD dual
graph used to partition only the physical region.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from ..partition.graph import Graph, graph_from_edges
from .subdomain import SubdomainGrid

__all__ = ["DomainMask"]


class DomainMask:
    """Boolean activity per SD of a :class:`SubdomainGrid`.

    Parameters
    ----------
    sd_grid:
        The SD geometry.
    active:
        Boolean array, one entry per SD (``True`` = physical domain).
    """

    def __init__(self, sd_grid: SubdomainGrid, active: np.ndarray) -> None:
        active = np.asarray(active, dtype=bool)
        if len(active) != sd_grid.num_subdomains:
            raise ValueError(
                f"mask length {len(active)} != SD count {sd_grid.num_subdomains}")
        if not active.any():
            raise ValueError("mask deactivates every SD")
        self.sd_grid = sd_grid
        self.active = active

    # -- factories -----------------------------------------------------------
    @classmethod
    def full(cls, sd_grid: SubdomainGrid) -> "DomainMask":
        """The trivial mask: the whole square is physical."""
        return cls(sd_grid, np.ones(sd_grid.num_subdomains, dtype=bool))

    @classmethod
    def from_predicate(cls, sd_grid: SubdomainGrid,
                       inside: Callable[[float, float], bool]) -> "DomainMask":
        """Activate SDs whose center satisfies ``inside(x, y)``."""
        active = np.array([bool(inside(cx, cy))
                           for cx, cy in sd_grid.centers.tolist()],
                          dtype=bool)
        return cls(sd_grid, active)

    @classmethod
    def l_shape(cls, sd_grid: SubdomainGrid, notch: float = 0.5) -> "DomainMask":
        """An L-shaped plate: the upper-right ``notch x notch`` corner
        of the unit square is removed."""
        if not 0.0 < notch < 1.0:
            raise ValueError(f"notch must be in (0,1), got {notch}")
        return cls.from_predicate(
            sd_grid, lambda x, y: not (x > 1.0 - notch and y > 1.0 - notch))

    @classmethod
    def disc(cls, sd_grid: SubdomainGrid, radius: float = 0.5,
             center: Tuple[float, float] = (0.5, 0.5)) -> "DomainMask":
        """A disc inscribed in the unit square."""
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        cx0, cy0 = center
        return cls.from_predicate(
            sd_grid,
            lambda x, y: (x - cx0) ** 2 + (y - cy0) ** 2 <= radius ** 2)

    # -- queries -----------------------------------------------------------

    def active_sds(self) -> List[int]:
        """Sorted active SD ids."""
        return [int(s) for s in np.nonzero(self.active)[0]]

    def dp_mask(self) -> np.ndarray:
        """Boolean DP-level mask of the mesh (``(ny, nx)``)."""
        out = np.zeros((self.sd_grid.mesh_ny, self.sd_grid.mesh_nx),
                       dtype=bool)
        for sd in self.active_sds():
            out[self.sd_grid.rect(sd).slices()] = True
        return out

    def work_factors(self, base: np.ndarray = None) -> np.ndarray:
        """Per-SD work factors with inactive SDs zeroed.

        Multiplies an optional ``base`` factor array (e.g. from the
        crack model); the result plugs straight into
        ``DistributedSolver(work_factors=...)``.
        """
        wf = np.ones(self.sd_grid.num_subdomains) if base is None \
            else np.asarray(base, dtype=np.float64).copy()
        if len(wf) != self.sd_grid.num_subdomains:
            raise ValueError("base must have one entry per SD")
        wf[~self.active] = 0.0
        return wf

    def is_connected(self) -> bool:
        """Whether the active region is face-connected."""
        graph, _ = self.active_dual_graph()
        return graph.is_connected()

    def active_dual_graph(self) -> Tuple[Graph, np.ndarray]:
        """Dual graph restricted to active SDs.

        Returns ``(graph, active_ids)`` where graph vertex ``i``
        corresponds to SD ``active_ids[i]``.  Partition this graph, then
        scatter the part ids back with :meth:`scatter_parts`.
        """
        ids = np.asarray(self.active_sds(), dtype=np.int64)
        local = {int(s): i for i, s in enumerate(ids)}
        edges = []
        rows = self.sd_grid.face_rows
        for sd in ids.tolist():
            for nb in rows[sd]:
                if self.active[nb] and sd < nb:
                    edges.append((local[sd], local[nb]))
        coords = self.sd_grid.centers[ids]
        return graph_from_edges(len(ids), edges, coords=coords), ids

    def scatter_parts(self, active_parts: np.ndarray,
                      inactive_owner: int = 0) -> np.ndarray:
        """Expand a partition of the active dual graph to all SDs.

        Inactive SDs are assigned ``inactive_owner``; they carry zero
        work so their nominal owner never computes for them.
        """
        ids = self.active_sds()
        if len(active_parts) != len(ids):
            raise ValueError(
                f"got {len(active_parts)} part ids for {len(ids)} active SDs")
        parts = np.full(self.sd_grid.num_subdomains, inactive_owner,
                        dtype=np.int64)
        for sd, p in zip(ids, active_parts):
            parts[sd] = int(p)
        return parts
