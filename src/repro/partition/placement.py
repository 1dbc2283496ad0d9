"""Topology-aware part → node placement.

A partitioner (:mod:`repro.partition.kway` and friends) decides *which
SDs belong together*; it says nothing about *which physical node* each
part should land on.  On a flat network that choice is irrelevant —
every node pair is equidistant — but on a rack hierarchy
(:mod:`repro.amt.topology`) it decides whether the ghost traffic
between adjacent parts crosses an oversubscribed uplink or stays inside
a rack.

This module permutes **part labels onto node ids** (a bijection — it
never changes which SDs share a part):

* :func:`rack_aware_mapping` — greedy affinity grouping: parts that
  share long SD boundaries are packed into the same rack, so the heavy
  ghost exchanges become intra-rack;
* :func:`scattered_mapping` — the adversarial baseline: parts are dealt
  round-robin across racks, maximizing inter-rack boundary traffic (what
  a placement-oblivious scheduler can easily do to you);
* :func:`apply_placement` — the spec-level entry point dispatching on
  :class:`repro.experiments.spec.PartitionSpec`'s ``placement`` field.

Everything is deterministic (ties break toward lower part/node ids), so
simulated schedules stay bit-identical across runs and sweep workers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..mesh.subdomain import SubdomainGrid

__all__ = ["part_affinity", "rack_aware_mapping", "scattered_mapping",
           "apply_placement"]


def part_affinity(sd_grid: SubdomainGrid, parts: np.ndarray,
                  num_parts: int) -> np.ndarray:
    """Symmetric part-adjacency weights: shared SD face count per pair.

    ``W[p, q]`` counts the SD face adjacencies between parts ``p`` and
    ``q`` — a proxy for the ghost bytes the pair exchanges every
    timestep (uniform SDs, fixed halo width).
    """
    parts = np.asarray(parts, dtype=np.int64)
    if len(parts) != sd_grid.num_subdomains:
        raise ValueError(
            f"parts length {len(parts)} != SD count "
            f"{sd_grid.num_subdomains}")
    W = np.zeros((num_parts, num_parts), dtype=np.int64)
    faces = sd_grid.faces
    # each face once, from its lower-id SD (padding -1 never exceeds it)
    once = faces > np.arange(len(parts))[:, None]
    p = np.broadcast_to(parts[:, None], faces.shape)[once]
    q = parts[faces[once]]
    cross = p != q
    np.add.at(W, (p[cross], q[cross]), 1)
    np.add.at(W, (q[cross], p[cross]), 1)
    return W


def _racks_to_nodes(node_racks: Sequence[int]) -> Dict[int, List[int]]:
    """Rack id → sorted node ids, racks in ascending id order."""
    groups: Dict[int, List[int]] = {}
    for node, rack in enumerate(node_racks):
        groups.setdefault(int(rack), []).append(node)
    return {rack: sorted(nodes) for rack, nodes in sorted(groups.items())}


def _grow_group(affinity: np.ndarray, seed: int,
                unassigned: List[int], cap: int) -> List[int]:
    """Greedy group around ``seed``: repeatedly absorb the unassigned
    part with the largest affinity to the group (ties → lowest id)."""
    group = [seed]
    rest = [p for p in unassigned if p != seed]
    while len(group) < cap and rest:
        scores = [affinity[p, group].sum() for p in rest]
        group.append(rest.pop(int(np.argmax(scores))))
    return group


def rack_aware_mapping(affinity: np.ndarray,
                       node_racks: Sequence[int]) -> np.ndarray:
    """Part → node bijection packing strongly-adjacent parts per rack.

    Racks are filled in ascending rack-id order.  For each rack, every
    remaining part is tried as a greedy-growth seed and the grouping
    with the largest internal affinity wins (a central seed tends to
    cut through the middle of a part cluster; trying all seeds finds
    the cluster instead).  A final pairwise-swap refinement pass moves
    any part pair whose exchange increases the total intra-rack
    affinity (equivalently: decreases the bytes crossing rack
    boundaries).  All ties break toward lower part ids, so the mapping
    is deterministic; on a single-rack (flat) topology it degenerates
    to the identity, so enabling rack placement under the default
    topology changes nothing.
    """
    k = len(node_racks)
    affinity = np.asarray(affinity, dtype=np.float64)
    if affinity.shape != (k, k):
        raise ValueError(
            f"affinity must be {k}x{k} (one row per node), "
            f"got {affinity.shape}")
    rack_nodes = _racks_to_nodes(node_racks)
    groups: Dict[int, List[int]] = {}
    unassigned = list(range(k))
    for rack, nodes in rack_nodes.items():
        cap = min(len(nodes), len(unassigned))
        best_group: List[int] = []
        best_score = -1.0
        for seed in unassigned:
            group = _grow_group(affinity, seed, unassigned, cap)
            score = float(affinity[np.ix_(group, group)].sum())
            if score > best_score:
                best_group, best_score = group, score
        groups[rack] = best_group
        unassigned = [p for p in unassigned if p not in best_group]
    # pairwise-swap refinement: exchange parts across racks while it
    # strictly increases the intra-rack affinity total
    rack_of_part = {p: rack for rack, group in groups.items()
                    for p in group}
    improved = True
    while improved:
        improved = False
        for p in range(k):
            for q in range(p + 1, k):
                rp, rq = rack_of_part[p], rack_of_part[q]
                if rp == rq:
                    continue
                gp = [x for x in groups[rp] if x != p]
                gq = [x for x in groups[rq] if x != q]
                gain = (affinity[p, gq].sum() + affinity[q, gp].sum()
                        - affinity[p, gp].sum() - affinity[q, gq].sum())
                if gain > 1e-12:
                    groups[rp].remove(p)
                    groups[rq].remove(q)
                    groups[rp].append(q)
                    groups[rq].append(p)
                    rack_of_part[p], rack_of_part[q] = rq, rp
                    improved = True
    # prefer the identity when it is just as good: if the partitioner's
    # own labels already achieve the same (or a better) inter-rack cut,
    # keep them — permuting equal-cut labels only perturbs second-order
    # link-queueing interleaves for no byte win
    def intra_total(gs: Dict[int, List[int]]) -> float:
        return float(sum(affinity[np.ix_(g, g)].sum()
                         for g in gs.values()))

    identity_groups: Dict[int, List[int]] = {}
    for node, rack in enumerate(node_racks):
        identity_groups.setdefault(int(rack), []).append(node)
    if intra_total(groups) <= intra_total(identity_groups) + 1e-12:
        groups = identity_groups
    mapping = np.full(k, -1, dtype=np.int64)
    for rack, nodes in rack_nodes.items():
        for node, part in zip(nodes, sorted(groups[rack])):
            mapping[part] = node
    if np.any(mapping < 0):
        raise ValueError(
            f"node_racks provides {k} slots but left parts unplaced")
    return mapping


def scattered_mapping(node_racks: Sequence[int]) -> np.ndarray:
    """Part → node bijection dealing consecutive parts across racks.

    Round-robin over the racks: part 0 goes to the first rack's first
    node, part 1 to the second rack's first node, and so on — so parts
    with nearby labels (which geometric partitioners make spatially
    adjacent) land in different racks.  The deliberately-bad baseline
    for the topology ablation.
    """
    groups = list(_racks_to_nodes(node_racks).values())
    order: List[int] = []
    depth = 0
    while len(order) < len(node_racks):
        for nodes in groups:
            if depth < len(nodes):
                order.append(nodes[depth])
        depth += 1
    k = len(node_racks)
    mapping = np.empty(k, dtype=np.int64)
    mapping[:] = order
    return mapping


def apply_placement(sd_grid: SubdomainGrid, parts: np.ndarray,
                    node_racks: Sequence[int],
                    placement: str) -> np.ndarray:
    """Relabel ``parts`` per the requested placement policy.

    ``placement`` is one of ``"none"`` (identity), ``"rack"``
    (:func:`rack_aware_mapping` on the SD-boundary affinity), or
    ``"scatter"`` (:func:`scattered_mapping`).  The returned array is a
    fresh copy; the grouping of SDs into parts is untouched — only the
    part → node assignment changes.
    """
    parts = np.asarray(parts, dtype=np.int64)
    if placement == "none":
        return parts.copy()
    if placement == "rack":
        affinity = part_affinity(sd_grid, parts, len(node_racks))
        mapping = rack_aware_mapping(affinity, node_racks)
    elif placement == "scatter":
        mapping = scattered_mapping(node_racks)
    else:
        raise ValueError(f"unknown placement {placement!r}; "
                         f"expected 'none', 'rack', or 'scatter'")
    return mapping[parts]
