"""Object-form SD geometry: the per-SD walks the array tables replace.

Neither runs in production.  Each builds :class:`~repro.mesh.subdomain
.Rect` objects one SD at a time, the way the geometry reads on paper,
so the tests can check the grid's arrays (faces, centres, halo tables)
and the decomposition's gathers against it:

* :func:`face_neighbors`, :func:`sd_center`, :func:`halo_rect` and
  :func:`halo_neighbors` — per-SD adjacency, centre and halo overlaps;
* :func:`ghost_messages` and :class:`GhostMessage` — the cross-node
  ghost transfers, one object per (source SD, destination SD) pair;
* :func:`case_split` and :class:`CaseSplit` — one SD's Case-1 mask;
* :func:`exchange_bytes` and :func:`node_adjacency`.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.mesh.decomposition import BYTES_PER_DP
from repro.mesh.subdomain import Rect, SubdomainGrid


# -- Rect helpers -----------------------------------------------------------
def intersect(a: Rect, b: Rect) -> Rect:
    """Intersection rectangle (possibly empty)."""
    return Rect(max(a.y0, b.y0), min(a.y1, b.y1),
                max(a.x0, b.x0), min(a.x1, b.x1))


def expand(r: Rect, margin: int) -> Rect:
    """Grow by ``margin`` DPs on every side (unclipped)."""
    return Rect(r.y0 - margin, r.y1 + margin, r.x0 - margin, r.x1 + margin)


def clip(r: Rect, ny: int, nx: int) -> Rect:
    """Clip to the mesh extent ``[0, ny) x [0, nx)``."""
    return Rect(max(0, r.y0), min(ny, r.y1), max(0, r.x0), min(nx, r.x1))


# -- per-SD geometry ---------------------------------------------------------
def face_neighbors(sg: SubdomainGrid, sd: int) -> List[int]:
    """The 4-adjacent SD ids in ``+x, -x, +y, -y`` order."""
    ix, iy = sg.sd_coords(sd)
    out = []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        jx, jy = ix + dx, iy + dy
        if 0 <= jx < sg.sd_nx and 0 <= jy < sg.sd_ny:
            out.append(sg.sd_id(jx, jy))
    return out


def sd_center(sg: SubdomainGrid, sd: int) -> Tuple[float, float]:
    """SD centre in unit-square coordinates."""
    ix, iy = sg.sd_coords(sd)
    return (ix + 0.5) / sg.sd_nx, (iy + 0.5) / sg.sd_ny


def halo_rect(sg: SubdomainGrid, sd: int, radius: int) -> Rect:
    """The SD rectangle expanded by ``radius`` and clipped to the mesh."""
    return clip(expand(sg.rect(sd), radius), sg.mesh_ny, sg.mesh_nx)


def halo_neighbors(sg: SubdomainGrid, sd: int,
                   radius: int) -> List[Tuple[int, Rect]]:
    """``(other_sd, overlap_rect)`` for every SD owning part of ``sd``'s
    halo, in row-major SD order (ascending id)."""
    halo = halo_rect(sg, sd, radius)
    ix, iy = sg.sd_coords(sd)
    min_w = int(np.diff(sg._x_cuts).min())
    min_h = int(np.diff(sg._y_cuts).min())
    ring = int(np.ceil(radius / max(1, min(min_w, min_h))))
    out: List[Tuple[int, Rect]] = []
    for jy in range(max(0, iy - ring), min(sg.sd_ny, iy + ring + 1)):
        for jx in range(max(0, ix - ring), min(sg.sd_nx, ix + ring + 1)):
            other = sg.sd_id(jx, jy)
            if other == sd:
                continue
            overlap = intersect(halo, sg.rect(other))
            if overlap.area > 0:
                out.append((other, overlap))
    return out


# -- ownership-dependent walks ------------------------------------------------
class GhostMessage:
    """One ghost-region transfer: ``region`` (global DP coordinates) is
    owned by ``src_node`` and read by SD ``dst_sd`` on ``dst_node``."""

    __slots__ = ("src_node", "dst_node", "src_sd", "dst_sd", "region")

    def __init__(self, src_node: int, dst_node: int, src_sd: int,
                 dst_sd: int, region: Rect) -> None:
        self.src_node = src_node
        self.dst_node = dst_node
        self.src_sd = src_sd
        self.dst_sd = dst_sd
        self.region = region

    @property
    def nbytes(self) -> int:
        return self.region.area * BYTES_PER_DP

    def as_tuple(self) -> Tuple[int, int, int, int, int]:
        """The ``Decomposition.ghost_messages`` entry of this message."""
        return (self.src_node, self.dst_node, self.src_sd, self.dst_sd,
                self.nbytes)


def ghost_messages(sg: SubdomainGrid, parts,
                   radius: int) -> List[GhostMessage]:
    """All cross-node ghost transfers, by destination SD then source SD."""
    out: List[GhostMessage] = []
    for dst_sd in range(sg.num_subdomains):
        dst_node = int(parts[dst_sd])
        for src_sd, region in halo_neighbors(sg, dst_sd, radius):
            src_node = int(parts[src_sd])
            if src_node != dst_node:
                out.append(GhostMessage(src_node, dst_node, src_sd, dst_sd,
                                        region))
    return out


def exchange_bytes(messages: List[GhostMessage]) -> Dict[Tuple[int, int], int]:
    """Total ghost bytes per ordered ``(src_node, dst_node)`` pair."""
    out: Dict[Tuple[int, int], int] = {}
    for msg in messages:
        key = (msg.src_node, msg.dst_node)
        out[key] = out.get(key, 0) + msg.nbytes
    return out


class CaseSplit:
    """Case-1/Case-2 classification of one SD's DPs (paper Fig. 5)."""

    __slots__ = ("sd", "case1_mask", "case1_count", "case2_count")

    def __init__(self, sd: int, case1_mask: np.ndarray) -> None:
        self.sd = sd
        self.case1_mask = case1_mask
        self.case1_count = int(case1_mask.sum())
        self.case2_count = int(case1_mask.size - self.case1_count)

    @property
    def total(self) -> int:
        return self.case1_mask.size


def case_split(sg: SubdomainGrid, parts, sd: int, radius: int) -> CaseSplit:
    """Mark, for each foreign halo overlap, the strip of ``sd`` within
    ``radius`` (Chebyshev) of it."""
    rect = sg.rect(sd)
    mask = np.zeros((rect.height, rect.width), dtype=bool)
    own = int(parts[sd])
    for src_sd, overlap in halo_neighbors(sg, sd, radius):
        if int(parts[src_sd]) == own:
            continue
        y0 = max(rect.y0, overlap.y0 - radius)
        y1 = min(rect.y1, overlap.y1 + radius)
        x0 = max(rect.x0, overlap.x0 - radius)
        x1 = min(rect.x1, overlap.x1 + radius)
        if y1 > y0 and x1 > x0:
            mask[y0 - rect.y0:y1 - rect.y0, x0 - rect.x0:x1 - rect.x0] = True
    return CaseSplit(sd, mask)


def node_adjacency(sg: SubdomainGrid, parts) -> List[Tuple[int, int]]:
    """Sorted node pairs with at least one SD face adjacency."""
    pairs = set()
    for sd in range(sg.num_subdomains):
        a = int(parts[sd])
        for nb in face_neighbors(sg, sd):
            b = int(parts[nb])
            if a != b:
                pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)
