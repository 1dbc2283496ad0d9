"""Crack-induced workload heterogeneity (paper Sec. 7 motivation).

In nonlocal fracture models, bonds crossing a crack are broken: material
points on either side of the crack line stop interacting, so SDs
containing crack segments perform *less* work per timestep than intact
SDs.  The paper cites this as the primary source of intrinsic load
imbalance its balancer must handle.

We model a crack as a polyline in the unit square.  For each SD we count
the fraction of its stencil bonds severed by the crack and derive a work
factor in ``(0, 1]``:

    work_factor(SD) = 1 - severed_bond_fraction(SD) * (1 - floor)

computed by Monte-Carlo-free deterministic sampling: DP pairs within the
horizon are sampled on a coarse lattice inside the SD and a bond is
severed iff its segment crosses a crack segment.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..mesh.subdomain import SubdomainGrid

__all__ = ["Crack", "crack_work_factors"]

Point = Tuple[float, float]


def _segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Proper/improper segment intersection via orientation tests."""
    def orient(a: Point, b: Point, c: Point) -> float:
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_seg(a: Point, b: Point, c: Point) -> bool:
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    if d1 == 0 and on_seg(q1, q2, p1):
        return True
    if d2 == 0 and on_seg(q1, q2, p2):
        return True
    if d3 == 0 and on_seg(p1, p2, q1):
        return True
    if d4 == 0 and on_seg(p1, p2, q2):
        return True
    return False


class Crack:
    """A polyline crack in unit-square coordinates.

    Parameters
    ----------
    points:
        Vertices of the polyline (at least two).
    """

    def __init__(self, points: Sequence[Point]) -> None:
        if len(points) < 2:
            raise ValueError("a crack needs at least two points")
        self.points = [(float(x), float(y)) for x, y in points]

    @property
    def segments(self) -> List[Tuple[Point, Point]]:
        """Consecutive vertex pairs."""
        return list(zip(self.points[:-1], self.points[1:]))

    def severs(self, a: Point, b: Point) -> bool:
        """Whether the bond ``a-b`` crosses the crack."""
        return any(_segments_intersect(a, b, q1, q2)
                   for q1, q2 in self.segments)

    @classmethod
    def diagonal(cls) -> "Crack":
        """The unit-square diagonal (a worst-case asymmetric crack)."""
        return cls([(0.0, 0.0), (1.0, 1.0)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Crack {len(self.points)} pts>"


def crack_work_factors(sd_grid: SubdomainGrid, crack,
                       horizon: float, floor: float = 0.3,
                       samples_per_sd: int = 5) -> np.ndarray:
    """Per-SD work multipliers induced by one or more cracks.

    Parameters
    ----------
    sd_grid:
        SD geometry; factors are indexed by SD id.
    crack:
        A :class:`Crack` or a sequence of them (a crack network); a bond
        is severed if *any* crack crosses it.
    horizon:
        Nonlocal horizon ``eps`` in unit-square units (bond length
        scale).
    floor:
        Work factor of a fully severed SD: even with every sampled bond
        broken, an SD still iterates its DPs and evaluates the (short)
        neighbour lists, so the factor never reaches zero.
    samples_per_sd:
        Lattice resolution for bond sampling within each SD (the number
        of sample points per axis).  5x5 points with 4 bond directions is
        enough to resolve "crack passes through" vs "misses" at SD
        granularity.

    Returns
    -------
    float64 array in ``[floor, 1]`` of length ``sd_grid.num_subdomains``.
    """
    if not 0.0 < floor <= 1.0:
        raise ValueError(f"floor must be in (0,1], got {floor}")
    if samples_per_sd < 2:
        raise ValueError(f"samples_per_sd must be >= 2, got {samples_per_sd}")
    cracks: List[Crack] = [crack] if isinstance(crack, Crack) else list(crack)
    if not cracks:
        raise ValueError("need at least one crack")
    factors = np.ones(sd_grid.num_subdomains)
    # bond directions: axis-aligned and diagonal, at the horizon scale
    dirs = np.array([(1.0, 0.0), (0.0, 1.0),
                     (0.7071, 0.7071), (-0.7071, 0.7071)]) * horizon
    for sd in range(sd_grid.num_subdomains):
        rect = sd_grid.rect(sd)
        # sample points in unit-square coordinates
        xs = np.linspace(rect.x0, rect.x1, samples_per_sd) / sd_grid.mesh_nx
        ys = np.linspace(rect.y0, rect.y1, samples_per_sd) / sd_grid.mesh_ny
        severed = 0
        total = 0
        for y in ys:
            for x in xs:
                for dx, dy in dirs:
                    total += 1
                    a = (x - dx / 2, y - dy / 2)
                    b = (x + dx / 2, y + dy / 2)
                    if any(c.severs(a, b) for c in cracks):
                        severed += 1
        frac = severed / total if total else 0.0
        factors[sd] = 1.0 - frac * (1.0 - floor)
    return factors
