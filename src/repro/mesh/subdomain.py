"""Sub-domain (SD) bookkeeping: the paper's unit of work and exchange.

The paper (Sec. 6.1) coarsens the DP mesh into square sub-domains: the
computation of one SD is the unit of work, and SDs are the unit of load
balancing and of ghost exchange.  :class:`SubdomainGrid` maps between SD
ids and DP index rectangles, and holds the geometry the decomposition
and the balancer read as arrays: face adjacency, SD centres and block
shapes, and one :class:`HaloTable` (halo pairs and Case-1 strips) per
stencil radius.  All of it is ownership-free, so it is built once per
grid and shared by every plan compile and balancing step.

SD ids follow the dual-graph convention of :mod:`repro.partition.graph`:
``sd = iy * sd_nx + ix``, so a partition array from
:func:`repro.partition.kway.partition_sd_grid` indexes directly.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["BYTES_PER_DP", "Rect", "SubdomainGrid", "HaloTable"]

#: Ghost payloads are float64 temperatures.
BYTES_PER_DP = 8


class Rect:
    """A half-open DP index rectangle ``[y0, y1) × [x0, x1)``."""

    __slots__ = ("y0", "y1", "x0", "x1")

    def __init__(self, y0: int, y1: int, x0: int, x1: int) -> None:
        self.y0, self.y1, self.x0, self.x1 = int(y0), int(y1), int(x0), int(x1)

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def area(self) -> int:
        """Number of DPs covered (0 if degenerate)."""
        return max(0, self.height) * max(0, self.width)

    def slices(self) -> Tuple[slice, slice]:
        """``(row_slice, col_slice)`` for NumPy indexing."""
        return (slice(self.y0, self.y1), slice(self.x0, self.x1))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Rect) and
                (self.y0, self.y1, self.x0, self.x1) ==
                (other.y0, other.y1, other.x0, other.x1))

    def __hash__(self) -> int:
        return hash((self.y0, self.y1, self.x0, self.x1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rect(y=[{self.y0},{self.y1}), x=[{self.x0},{self.x1}))"


class SubdomainGrid:
    """Partition of an ``mesh_nx × mesh_ny`` DP mesh into SDs.

    Parameters
    ----------
    mesh_nx, mesh_ny:
        DP counts of the full mesh.
    sd_nx, sd_ny:
        Number of SDs along each axis.  When the mesh does not divide
        evenly, the remainder DPs are spread over the leading SDs (the
        paper always divides evenly, e.g. 400/8; uneven support keeps the
        library usable on arbitrary meshes).
    """

    def __init__(self, mesh_nx: int, mesh_ny: int, sd_nx: int, sd_ny: int) -> None:
        if sd_nx < 1 or sd_ny < 1:
            raise ValueError(f"SD grid must be at least 1x1, got {sd_nx}x{sd_ny}")
        if sd_nx > mesh_nx or sd_ny > mesh_ny:
            raise ValueError(
                f"more SDs than DPs: {sd_nx}x{sd_ny} SDs on {mesh_nx}x{mesh_ny} mesh")
        self.mesh_nx = mesh_nx
        self.mesh_ny = mesh_ny
        self.sd_nx = sd_nx
        self.sd_ny = sd_ny
        self._x_cuts = np.linspace(0, mesh_nx, sd_nx + 1).round().astype(np.int64)
        self._y_cuts = np.linspace(0, mesh_ny, sd_ny + 1).round().astype(np.int64)
        self._halo_tables: Dict[int, HaloTable] = {}

    # -- id mapping ---------------------------------------------------------
    @property
    def num_subdomains(self) -> int:
        """Total SD count."""
        return self.sd_nx * self.sd_ny

    def sd_id(self, ix: int, iy: int) -> int:
        """SD id at SD-grid column ``ix``, row ``iy``."""
        if not (0 <= ix < self.sd_nx and 0 <= iy < self.sd_ny):
            raise IndexError(f"SD ({ix},{iy}) outside {self.sd_nx}x{self.sd_ny}")
        return iy * self.sd_nx + ix

    def sd_coords(self, sd: int) -> Tuple[int, int]:
        """``(ix, iy)`` SD-grid coordinates of SD ``sd``."""
        if not 0 <= sd < self.num_subdomains:
            raise IndexError(f"SD id {sd} outside [0,{self.num_subdomains})")
        return sd % self.sd_nx, sd // self.sd_nx

    # -- geometry --------------------------------------------------------------
    def rect(self, sd: int) -> Rect:
        """DP rectangle owned by SD ``sd``."""
        ix, iy = self.sd_coords(sd)
        return Rect(self._y_cuts[iy], self._y_cuts[iy + 1],
                    self._x_cuts[ix], self._x_cuts[ix + 1])

    def dp_count(self, sd: int) -> int:
        """Number of DPs in SD ``sd``."""
        return self.rect(sd).area

    # -- geometry tables ---------------------------------------------------
    # Ownership-free and built once per grid: plan compiles and the
    # balancer gather from them instead of walking SDs one by one.
    @cached_property
    def faces(self) -> np.ndarray:
        """``(nsd, 4)`` face-adjacent SD ids, ``-1`` past the grid edge.

        Row ``sd`` lists the neighbours in ``+x, -x, +y, -y`` order (the
        dual graph edges).
        """
        ix, iy = self._ixy
        sd = np.arange(self.num_subdomains, dtype=np.int64)
        out = np.stack([np.where(ix + 1 < self.sd_nx, sd + 1, -1),
                        np.where(ix > 0, sd - 1, -1),
                        np.where(iy + 1 < self.sd_ny, sd + self.sd_nx, -1),
                        np.where(iy > 0, sd - self.sd_nx, -1)], axis=1)
        out.flags.writeable = False
        return out

    def face_owners(self, parts: np.ndarray) -> np.ndarray:
        """``(nsd, 4)`` owner of each :attr:`faces` neighbour under
        ownership ``parts``, ``-1`` past the grid edge."""
        return np.append(parts, -1)[self.faces]

    @cached_property
    def face_rows(self) -> List[List[int]]:
        """:attr:`faces` as Python lists without the ``-1`` padding,
        for walks that visit a few SDs at a time."""
        return [[nb for nb in row if nb >= 0] for row in self.faces.tolist()]

    @cached_property
    def centers(self) -> np.ndarray:
        """``(nsd, 2)`` SD centres ``(x, y)`` in unit-square coordinates."""
        ix, iy = self._ixy
        out = np.stack([(ix + 0.5) / self.sd_nx, (iy + 0.5) / self.sd_ny],
                       axis=1)
        out.flags.writeable = False
        return out

    @cached_property
    def dp_shapes(self) -> np.ndarray:
        """``(nsd, 2)`` DP block shape ``(rows, cols)`` of every SD."""
        ix, iy = self._ixy
        out = np.stack([np.diff(self._y_cuts)[iy], np.diff(self._x_cuts)[ix]],
                       axis=1)
        out.flags.writeable = False
        return out

    @cached_property
    def _ixy(self) -> Tuple[np.ndarray, np.ndarray]:
        sd = np.arange(self.num_subdomains, dtype=np.int64)
        return sd % self.sd_nx, sd // self.sd_nx

    def halo_table(self, radius: int) -> "HaloTable":
        """The :class:`HaloTable` of stencil ``radius`` (built once)."""
        table = self._halo_tables.get(radius)
        if table is None:
            table = self._halo_tables[radius] = HaloTable(self, radius)
        return table

    def ownership_grid(self, parts: np.ndarray) -> np.ndarray:
        """Reshape a per-SD part array into the ``(sd_ny, sd_nx)`` grid."""
        parts = np.asarray(parts)
        if len(parts) != self.num_subdomains:
            raise ValueError(
                f"parts length {len(parts)} != SD count {self.num_subdomains}")
        return parts.reshape(self.sd_ny, self.sd_nx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SubdomainGrid mesh={self.mesh_nx}x{self.mesh_ny} "
                f"sds={self.sd_nx}x{self.sd_ny}>")


class HaloTable:
    """The halo geometry of one ``(SubdomainGrid, radius)`` pair, as arrays.

    One entry per halo pair: SD ``dst`` reads ``nbytes`` of ghost data
    from SD ``src``, sorted by ``(dst, src)``.  When the radius exceeds
    the SD edge, SDs beyond the immediate ring appear — the regime the
    paper avoids by keeping SDs bigger than eps, and the solver supports
    both.

    Each pair also forces a Case-1 strip on ``dst``: the DPs of ``dst``
    within ``radius`` (Chebyshev) of the overlap.  The strips are kept
    per SD *layout*: SDs with the same block shape and the same SD-local
    strips at every ring offset share one layout row (a 32x32 grid of
    even SDs has 9: interior, 4 edges, 4 corners).

    Ownership decides only which pairs cross nodes.  :meth:`case1_counts`
    turns that mask into each SD's Case-1 DP count (paper Fig. 5): the
    area of the union of its foreign pairs' strips.
    """

    def __init__(self, grid: SubdomainGrid, radius: int) -> None:
        # ring width in SD units that a halo can reach
        min_edge = int(min(np.diff(grid._x_cuts).min(),
                           np.diff(grid._y_cuts).min()))
        ring = min(int(np.ceil(radius / max(1, min_edge))),
                   max(grid.sd_nx, grid.sd_ny))
        # candidate neighbours per (SD, ring offset); offsets in
        # row-major order, so each SD's neighbours ascend by SD id
        offsets = [(dy, dx) for dy in range(-ring, ring + 1)
                   for dx in range(-ring, ring + 1) if dy or dx]
        dy = np.array([o[0] for o in offsets], dtype=np.int32)
        dx = np.array([o[1] for o in offsets], dtype=np.int32)
        # SDs sharing a block shape and the SD-local strip at every
        # ring offset share a layout; a layout plus its foreign pairs
        # decides the Case-1 count
        ids: Dict[bytes, int] = {}
        self._layout_rows: List[np.ndarray] = []
        cols: List[List[np.ndarray]] = [[], [], [], [], []]
        nsd = grid.num_subdomains
        for lo in range(0, nsd, _BLOCK):
            *pairs, rows = _halo_block(grid, radius, dy, dx, lo,
                                       min(nsd, lo + _BLOCK))
            uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
            local = []
            for row in uniq:
                key = row.tobytes()
                if key not in ids:
                    ids[key] = len(self._layout_rows)
                    self._layout_rows.append(row)
                local.append(ids[key])
            pairs.append(np.array(local, dtype=np.int32)[inverse.reshape(-1)])
            for col, part in zip(cols, pairs):
                col.append(part)
        dst, src, nbytes, valid, layout = (np.concatenate(c) for c in cols)
        #: consumer SD of each pair (ascending)
        self.dst = dst
        #: SD owning the pair's ghost data (ascending within a consumer)
        self.src = src
        #: ghost payload of each pair in bytes
        self.nbytes = nbytes
        self._valid = valid
        self._layout = layout
        #: Case-1 count per (layout, foreign pairs) key
        self._case1: Dict[bytes, int] = {}

    def case1_counts(self, parts: np.ndarray) -> np.ndarray:
        """Case-1 DP count of every SD under ownership ``parts``.

        A DP is Case 1 iff its stencil reaches a DP owned by another
        node.  Each SD's count is the area of the union of the strips
        of its foreign pairs; SDs with the same layout and the same
        foreign pairs share one evaluation, memoized across ownerships.
        """
        foreign = np.zeros(self._valid.shape, dtype=bool)
        foreign[self._valid] = parts[self.src] != parts[self.dst]
        keys = np.concatenate([self._layout.view(np.uint8).reshape(-1, 4),
                               np.packbits(foreign, axis=1)], axis=1)
        uniq, first, inverse = np.unique(keys, axis=0, return_index=True,
                                         return_inverse=True)
        counts = np.empty(len(uniq), dtype=np.int64)
        memo = self._case1
        for i, (key, sd) in enumerate(zip(uniq, first.tolist())):
            key = key.tobytes()
            count = memo.get(key)
            if count is None:
                count = memo[key] = self._union_area(
                    self._layout_rows[self._layout[sd]], foreign[sd])
            counts[i] = count
        return counts[inverse.reshape(-1)]

    @staticmethod
    def _union_area(row: np.ndarray, foreign: np.ndarray) -> int:
        """DPs covered by the foreign strips of a layout ``row``:
        ``rows, cols`` of the block, then ``(y0, y1, x0, x1)`` per ring
        offset."""
        mask = np.zeros((row[0], row[1]), dtype=bool)
        strips = row[2:].reshape(-1, 4)
        for y0, y1, x0, x1 in strips[foreign].tolist():
            if y1 > y0 and x1 > x0:
                mask[y0:y1, x0:x1] = True
        return int(mask.sum())


#: SDs per vectorized block while building a :class:`HaloTable`: bounds
#: the temporaries at a few hundred KB on any grid
_BLOCK = 512


def _halo_block(grid: SubdomainGrid, radius: int, dy: np.ndarray,
                dx: np.ndarray, lo: int, hi: int):
    """:class:`HaloTable` columns of SDs ``lo..hi-1`` at ring offsets
    ``(dy, dx)``: consumer, source and bytes of each pair, the
    ``(SD, offset)`` validity mask, and each SD's layout row."""
    # int32 throughout: DP coordinates and SD ids fit easily
    sd = np.arange(lo, hi, dtype=np.int32)
    ix, iy = sd % grid.sd_nx, sd // grid.sd_nx
    xc, yc = grid._x_cuts.astype(np.int32), grid._y_cuts.astype(np.int32)
    jy, jx = iy[:, None] + dy, ix[:, None] + dx
    valid = ((jx >= 0) & (jx < grid.sd_nx)
             & (jy >= 0) & (jy < grid.sd_ny))
    src = np.where(valid, jy * grid.sd_nx + jx, 0)
    sx, sy = src % grid.sd_nx, src // grid.sd_nx
    y0, y1 = yc[iy][:, None], yc[iy + 1][:, None]
    x0, x1 = xc[ix][:, None], xc[ix + 1][:, None]
    # overlap of the SD's halo (its block grown by `radius`, clipped
    # to the mesh) with the neighbour's block
    oy0 = np.maximum(np.maximum(y0 - radius, 0), yc[sy])
    oy1 = np.minimum(np.minimum(y1 + radius, grid.mesh_ny), yc[sy + 1])
    ox0 = np.maximum(np.maximum(x0 - radius, 0), xc[sx])
    ox1 = np.minimum(np.minimum(x1 + radius, grid.mesh_nx), xc[sx + 1])
    valid &= (oy1 > oy0) & (ox1 > ox0)
    # the Case-1 strip: the SD's DPs within `radius` of the overlap
    strips = np.stack([np.maximum(y0, oy0 - radius) - y0,
                       np.minimum(y1, oy1 + radius) - y0,
                       np.maximum(x0, ox0 - radius) - x0,
                       np.minimum(x1, ox1 + radius) - x0], axis=2)
    strips[~valid] = -1
    nbytes = ((oy1 - oy0)[valid].astype(np.int64)
              * (ox1 - ox0)[valid] * BYTES_PER_DP)
    rows = np.concatenate([grid.dp_shapes[lo:hi].astype(np.int32),
                           strips.reshape(hi - lo, -1)], axis=1)
    return (sd[np.nonzero(valid)[0]], src[valid], nbytes, valid, rows)
