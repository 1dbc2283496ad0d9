"""Fiduccia–Mattheyses (FM) boundary refinement for bisections.

The uncoarsening phase of the multilevel partitioner projects the coarse
partition to the finer graph and runs FM passes: vertices are moved one at
a time to the other side in order of gain (cut-weight decrease), moved
vertices are locked for the rest of the pass, and the best prefix of the
move sequence is kept.  Moves that would violate the balance constraint
are skipped.  This is the same refinement family METIS uses; its key
property — a pass never *increases* the cut — is enforced by the
best-prefix rollback and asserted by the property tests.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from .graph import Graph

__all__ = ["fm_refine_bisection", "compute_gains"]


def compute_gains(graph: Graph, parts: np.ndarray) -> np.ndarray:
    """Gain of moving each vertex to the opposite side.

    ``gain[v] = (weight to other side) - (weight to own side)``; positive
    gain means the move reduces the cut by that amount.
    """
    n = graph.num_vertices
    gains = np.zeros(n)
    for v in range(n):
        nbrs = graph.neighbors(v)
        wgts = graph.edge_weights(v)
        same = parts[nbrs] == parts[v]
        gains[v] = float(wgts[~same].sum() - wgts[same].sum())
    return gains


def _one_pass(graph: Graph, parts: np.ndarray, max_weight: np.ndarray) -> float:
    """Run a single FM pass in place; return the cut improvement (>= 0).

    ``max_weight`` is a per-side cap ``[w0_max, w1_max]``; a move into a
    side is skipped when it would push that side past its cap.
    """
    n = graph.num_vertices
    gains = compute_gains(graph, parts)
    side_weight = np.zeros(2)
    np.add.at(side_weight, parts, graph.vwgt)

    locked = np.zeros(n, dtype=bool)
    stamp = np.zeros(n, dtype=np.int64)
    heap: List[Tuple[float, int, int]] = []

    def push(v: int) -> None:
        stamp[v] += 1
        heapq.heappush(heap, (-gains[v], v, int(stamp[v])))

    for v in range(n):
        # only boundary vertices can have useful gains, but pushing all
        # keeps the pass correct on graphs with isolated vertices
        push(v)

    moves: List[int] = []
    cum_gain = 0.0
    best_gain = 0.0
    best_prefix = 0

    while heap:
        neg_gain, v, st = heapq.heappop(heap)
        if locked[v] or st != stamp[v]:
            continue
        src = int(parts[v])
        dst = 1 - src
        if side_weight[dst] + graph.vwgt[v] > max_weight[dst]:
            locked[v] = True  # cannot move this pass; try others
            continue
        # apply the move
        locked[v] = True
        parts[v] = dst
        side_weight[src] -= graph.vwgt[v]
        side_weight[dst] += graph.vwgt[v]
        cum_gain += -neg_gain
        moves.append(v)
        if cum_gain > best_gain + 1e-12:
            best_gain = cum_gain
            best_prefix = len(moves)
        # update neighbour gains
        for u, w in zip(graph.neighbors(v), graph.edge_weights(v)):
            if locked[u]:
                continue
            if parts[u] == dst:
                gains[u] -= 2.0 * w
            else:
                gains[u] += 2.0 * w
            push(int(u))

    # roll back everything after the best prefix
    for v in moves[best_prefix:]:
        parts[v] = 1 - parts[v]
    return best_gain


def _rebalance(graph: Graph, parts: np.ndarray,
               max_weight: np.ndarray) -> None:
    """Force an overweight side back under its cap, in place.

    Balance beats cut here (as in METIS): vertices leave the overweight
    side in order of gain — least cut damage first — until the cap
    holds or only one vertex remains.  Gains are not updated between
    moves; this is coarse repair of degenerate inputs (e.g. a
    disconnected region whose initial bisection collapsed), and the FM
    passes that follow clean up the cut.
    """
    side_weight = np.zeros(2)
    np.add.at(side_weight, parts, graph.vwgt)
    for s in (0, 1):
        if side_weight[s] <= max_weight[s]:
            continue
        gains = compute_gains(graph, parts)
        heap = [(-gains[v], v) for v in np.flatnonzero(parts == s)]
        heapq.heapify(heap)
        n_side = len(heap)
        while side_weight[s] > max_weight[s] and n_side > 1 and heap:
            _, v = heapq.heappop(heap)
            parts[v] = 1 - s
            side_weight[s] -= graph.vwgt[v]
            side_weight[1 - s] += graph.vwgt[v]
            n_side -= 1


def fm_refine_bisection(graph: Graph, parts: np.ndarray,
                        balance: float = 1.05,
                        max_passes: int = 8,
                        target_fractions: Tuple[float, float] = (0.5, 0.5)) -> np.ndarray:
    """Refine a 0/1 partition in place; returns ``parts`` for chaining.

    Parameters
    ----------
    balance:
        Allowed imbalance: side ``s`` may not exceed
        ``balance * target_fractions[s] * total_weight``.  If the incoming
        partition violates a cap, it is first *repaired* — vertices
        leave the overweight side, least cut damage first, until the cap
        holds (``_rebalance``).  The previous behavior of relaxing the
        cap to the incoming weight let a degenerate initial bisection
        (a 1/38 split of a disconnected region) survive refinement
        untouched and surface as an imbalanced final partition.
    max_passes:
        Upper bound on FM passes; iteration stops early once a pass
        yields no improvement.
    target_fractions:
        Intended weight split between the two sides; recursive bisection
        for non-power-of-two ``k`` passes asymmetric targets here so FM
        cannot drift the split back toward 50/50.
    """
    parts = np.asarray(parts, dtype=np.int64)
    if set(np.unique(parts)) - {0, 1}:
        raise ValueError("fm_refine_bisection expects a 0/1 partition")
    f0, f1 = target_fractions
    if f0 <= 0 or f1 <= 0:
        raise ValueError(f"target fractions must be positive, got {target_fractions}")
    total = graph.total_vertex_weight()
    current = np.zeros(2)
    np.add.at(current, parts, graph.vwgt)
    max_weight = np.array([balance * f0 * total, balance * f1 * total])
    if current[0] > max_weight[0] or current[1] > max_weight[1]:
        _rebalance(graph, parts, max_weight)
        # vertex granularity can make a cap unreachable (e.g. one
        # heavy coarse vertex); never let the FM passes make balance
        # worse than the repaired state
        current[:] = 0.0
        np.add.at(current, parts, graph.vwgt)
        max_weight = np.maximum(max_weight, current)

    for _ in range(max_passes):
        improvement = _one_pass(graph, parts, max_weight)
        if improvement <= 1e-12:
            break
    return parts
