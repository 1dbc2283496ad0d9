"""Direction-uniform, contiguity-preserving SD transfer selection.

When the balancer decides node ``r`` borrows ``count`` SDs from node
``d``, *which* SDs move matters: the paper requires borrowing "uniformly
in all the spatial directions" so the receiver's SP stays compact and the
donor's SP is not hollowed out — preserving the contiguous, low-edge-cut
shape METIS produced (Sec. 7, Fig. 6).

Selection is greedy, one SD at a time, over the donor SDs on the current
donor/receiver frontier:

1. smallest distance to the receiver's SP centroid — the region grows
   as a compact disc, which is what "borrowing uniformly in all the
   spatial directions" produces in the paper's Fig. 6;
2. among distance ties, round-robin over angular bins around the
   centroid (explicit direction uniformity);
3. among remaining ties, maximise face-adjacency to the receiver's SP,
   then smallest SD id (determinism).

A candidate whose removal would disconnect the donor's SP is skipped
while connected alternatives exist, keeping both SPs contiguous whenever
geometry allows.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..mesh.subdomain import SubdomainGrid

__all__ = ["TransferPlan", "select_transfers", "apply_transfers",
           "naive_select_transfers"]

#: Number of angular bins used for direction-uniform spreading.
NUM_ANGLE_BINS = 8


class TransferPlan:
    """The outcome of one donor->receiver selection.

    ``sds`` lists the SD ids to move (in selection order); ``requested``
    records how many were asked for — fewer may be geometrically
    possible (no shared frontier left).
    """

    def __init__(self, donor: int, receiver: int, requested: int,
                 sds: List[int]) -> None:
        self.donor = donor
        self.receiver = receiver
        self.requested = requested
        self.sds = sds

    @property
    def moved(self) -> int:
        """Number of SDs actually selected."""
        return len(self.sds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TransferPlan n{self.donor}->n{self.receiver} "
                f"{self.moved}/{self.requested} SDs>")


def _sp_centroid(sd_grid: SubdomainGrid, parts: np.ndarray, node: int) -> np.ndarray:
    members = parts == node
    if not members.any():
        return np.array([0.5, 0.5])
    return sd_grid.centers[members].mean(axis=0)


def _donor_stays_connected(sd_grid: SubdomainGrid, parts: np.ndarray,
                           donor: int, candidate: int) -> bool:
    """Whether removing ``candidate`` keeps the donor's SP face-connected."""
    mask = parts == donor
    members = np.flatnonzero(mask)
    size = len(members) - int(mask[candidate])
    if size <= 1:
        return True
    # depth-first walk over the face lists; `owned` doubles as the
    # not-yet-seen set
    owned = mask.tolist()
    owned[candidate] = False
    seed = int(members[0] if members[0] != candidate else members[1])
    owned[seed] = False
    stack = [seed]
    seen = 1
    rows = sd_grid.face_rows
    while stack:
        for nb in rows[stack.pop()]:
            if owned[nb]:
                owned[nb] = False
                seen += 1
                stack.append(nb)
    return seen == size


def select_transfers(sd_grid: SubdomainGrid, parts: np.ndarray,
                     donor: int, receiver: int, count: int,
                     preserve_donor_connectivity: bool = True) -> TransferPlan:
    """Select up to ``count`` donor SDs to hand to ``receiver``.

    ``parts`` is *not* modified; apply the plan with
    :func:`apply_transfers`.  Selection re-evaluates the frontier after
    each pick, so the chosen set grows the receiver's region organically
    instead of peeling a single row.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if donor == receiver:
        raise ValueError("donor and receiver must differ")
    work = np.array(parts, dtype=np.int64, copy=True)
    centroid = _sp_centroid(sd_grid, work, receiver)
    bin_usage = [0] * NUM_ANGLE_BINS
    chosen: List[int] = []

    for _ in range(count):
        frontier = _frontier(sd_grid, work, donor, receiver)
        if not frontier:
            break
        pick = _pick(sd_grid, work, donor, receiver, frontier, centroid,
                     bin_usage, preserve_donor_connectivity)
        if pick is None:
            break
        chosen.append(pick)
        work[pick] = receiver
        bin_usage[_angle_bin(sd_grid, pick, centroid)] += 1
    return TransferPlan(donor, receiver, count, chosen)


def _frontier(sd_grid: SubdomainGrid, parts: np.ndarray,
              donor: int, receiver: int) -> List[int]:
    """Donor SDs face-adjacent to the receiver's SP, ascending."""
    touches = (sd_grid.face_owners(parts) == receiver).any(axis=1)
    return np.flatnonzero(touches & (parts == donor)).tolist()


def _angle_bin(sd_grid: SubdomainGrid, sd: int, centroid: np.ndarray) -> int:
    cx, cy = sd_grid.centers[sd]
    angle = math.atan2(cy - centroid[1], cx - centroid[0])
    b = int((angle + math.pi) / (2 * math.pi) * NUM_ANGLE_BINS)
    return min(b, NUM_ANGLE_BINS - 1)


def _pick(sd_grid: SubdomainGrid, parts: np.ndarray, donor: int,
          receiver: int, frontier: List[int], centroid: np.ndarray,
          bin_usage: List[int], preserve_connectivity: bool):
    """Rank the frontier by the selection criteria; return the best SD."""
    adjs = (sd_grid.face_owners(parts)[frontier]
            == receiver).sum(axis=1).tolist()
    scored = []
    for sd, adj in zip(frontier, adjs):
        cx, cy = sd_grid.centers[sd]
        dist = math.hypot(cx - centroid[0], cy - centroid[1])
        usage = bin_usage[_angle_bin(sd_grid, sd, centroid)]
        scored.append((round(dist, 9), usage, -adj, sd))
    scored.sort()
    if preserve_connectivity:
        for _, _, _, sd in scored:
            if _donor_stays_connected(sd_grid, parts, donor, sd):
                return sd
        # every candidate disconnects the donor; fall through and accept
        # the best-ranked one — balance beats contiguity as a last resort
    return scored[0][3] if scored else None


def naive_select_transfers(sd_grid: SubdomainGrid, parts: np.ndarray,
                           donor: int, receiver: int, count: int) -> TransferPlan:
    """Baseline for the transfer ablation: take the lowest-id frontier SDs.

    Ignores direction uniformity and donor connectivity; used by
    ``bench_abl_transfer`` to quantify what the paper's policy buys.
    """
    work = np.array(parts, dtype=np.int64, copy=True)
    chosen: List[int] = []
    for _ in range(max(0, count)):
        frontier = _frontier(sd_grid, work, donor, receiver)
        if not frontier:
            break
        pick = min(frontier)
        chosen.append(pick)
        work[pick] = receiver
    return TransferPlan(donor, receiver, count, chosen)


def apply_transfers(parts: np.ndarray, plans: Sequence[TransferPlan]) -> np.ndarray:
    """Apply transfer plans to a copy of ``parts``; returns the new array."""
    out = np.array(parts, dtype=np.int64, copy=True)
    for plan in plans:
        for sd in plan.sds:
            if out[sd] != plan.donor:
                raise ValueError(
                    f"SD {sd} no longer owned by donor {plan.donor}")
            out[sd] = plan.receiver
    return out
