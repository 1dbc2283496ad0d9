"""Object-form Algorithm 1 helpers: the per-SD walks the face array replaces.

Neither runs in production.  Each walks the SD grid one SD at a time
through ``sd_coords``/``sd_id``, as the geometry reads on paper.
:func:`use_object_forms` installs them in place of the array forms of
:mod:`repro.core.transfer`, :mod:`repro.core.tree` and
:mod:`repro.core.strategies.base`, so a test can run a strategy both
ways and compare the chosen transfers:

* :func:`face_neighbors` and :func:`sd_center`;
* :func:`node_adjacency`, the dependency tree's edge set;
* :func:`sp_centroid`, :func:`donor_stays_connected`, :func:`frontier`,
  :func:`angle_bin` and :func:`pick`, the transfer selection;
* :func:`evacuate_assignments`, the failure-recovery sweep.
"""

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core import transfer
from repro.core.strategies import base, diffusion
from repro.core.strategies import tree as tree_strategy
from repro.core.transfer import NUM_ANGLE_BINS, TransferPlan
from repro.mesh.subdomain import SubdomainGrid


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


def sp_centroid(sg: SubdomainGrid, parts: np.ndarray, node: int) -> np.ndarray:
    members = np.nonzero(parts == node)[0]
    if len(members) == 0:
        return np.array([0.5, 0.5])
    pts = np.array([sd_center(sg, int(s)) for s in members])
    return pts.mean(axis=0)


def donor_stays_connected(sg: SubdomainGrid, parts: np.ndarray,
                          donor: int, candidate: int) -> bool:
    members = [s for s in np.nonzero(parts == donor)[0] if s != candidate]
    if len(members) <= 1:
        return True
    member_set = set(int(s) for s in members)
    seen = {int(members[0])}
    stack = [int(members[0])]
    while stack:
        s = stack.pop()
        for nb in face_neighbors(sg, s):
            if nb in member_set and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(member_set)


def frontier(sg: SubdomainGrid, parts: np.ndarray, donor: int,
             receiver: int) -> List[int]:
    out = []
    for sd in np.nonzero(parts == donor)[0]:
        if any(parts[nb] == receiver for nb in face_neighbors(sg, int(sd))):
            out.append(int(sd))
    return out


def angle_bin(sg: SubdomainGrid, sd: int, centroid: np.ndarray) -> int:
    cx, cy = sd_center(sg, sd)
    angle = math.atan2(cy - centroid[1], cx - centroid[0])
    b = int((angle + math.pi) / (2 * math.pi) * NUM_ANGLE_BINS)
    return min(b, NUM_ANGLE_BINS - 1)


def pick(sg: SubdomainGrid, parts: np.ndarray, donor: int, receiver: int,
         front: List[int], centroid: np.ndarray, bin_usage: List[int],
         preserve_connectivity: bool) -> Optional[int]:
    scored = []
    for sd in front:
        adj = sum(1 for nb in face_neighbors(sg, sd) if parts[nb] == receiver)
        cx, cy = sd_center(sg, sd)
        dist = math.hypot(cx - centroid[0], cy - centroid[1])
        usage = bin_usage[angle_bin(sg, sd, centroid)]
        scored.append((round(dist, 9), usage, -adj, sd))
    scored.sort()
    if preserve_connectivity:
        for _, _, _, sd in scored:
            if donor_stays_connected(sg, parts, donor, sd):
                return sd
    return scored[0][3] if scored else None


def evacuate_assignments(sg: SubdomainGrid, parts: np.ndarray,
                         active: np.ndarray, sd_work=None):
    parts = np.array(parts, dtype=np.int64, copy=True)
    active = np.asarray(active, dtype=bool)
    sd_work = (np.ones(len(parts)) if sd_work is None
               else np.asarray(sd_work, dtype=np.float64))
    if not active.any():
        raise ValueError("evacuation needs at least one active node")
    load = np.zeros(len(active))
    owned_by_active = active[parts]
    np.add.at(load, parts[owned_by_active], sd_work[owned_by_active])
    active_ids = [int(n) for n in np.nonzero(active)[0]]
    plans: List[TransferPlan] = []
    while True:
        stranded = np.nonzero(~active[parts])[0]
        if len(stranded) == 0:
            break
        best = None  # (dst load, dst id, sd id)
        for sd in stranded:
            for nb in face_neighbors(sg, int(sd)):
                dst = int(parts[nb])
                if active[dst]:
                    key = (float(load[dst]), dst, int(sd))
                    if best is None or key < best:
                        best = key
        if best is None:
            dst = min(active_ids, key=lambda n: (float(load[n]), n))
            best = (float(load[dst]), dst, int(stranded[0]))
        _, dst, sd = best
        plans.append(TransferPlan(int(parts[sd]), dst, 1, [sd]))
        parts[sd] = dst
        load[dst] += sd_work[sd]
    return parts, plans


def use_object_forms(monkeypatch) -> None:
    """Route the balancer through the object forms above."""
    for name, fn in (("_sp_centroid", sp_centroid),
                     ("_donor_stays_connected", donor_stays_connected),
                     ("_frontier", frontier), ("_angle_bin", angle_bin),
                     ("_pick", pick)):
        monkeypatch.setattr(transfer, name, fn)
    for module in (base, diffusion, tree_strategy):
        monkeypatch.setattr(module, "node_adjacency", node_adjacency)
    monkeypatch.setattr(base, "evacuate_assignments", evacuate_assignments)
