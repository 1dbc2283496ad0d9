"""Weighted undirected graphs in CSR form for mesh partitioning.

The paper partitions the **dual graph of the SD mesh** with METIS
(``METIS_PartMeshDual``): one vertex per sub-domain, an edge wherever two
SDs exchange ghost data.  This module provides the CSR graph container the
multilevel partitioner (:mod:`repro.partition.kway`) operates on, plus
builders for the structured grids used throughout the reproduction.

Design notes (following the numpy guide): adjacency is stored as two int64
arrays (``xadj``/``adjncy``) plus parallel weight arrays, so coarsening and
refinement sweep contiguous memory instead of chasing dict pointers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Graph", "grid_dual_graph", "graph_from_edges"]


class Graph:
    """Undirected graph in compressed sparse row (CSR) form.

    Attributes
    ----------
    xadj:
        int64 array of length ``n + 1``; vertex ``v``'s neighbours are
        ``adjncy[xadj[v]:xadj[v+1]]``.
    adjncy:
        int64 array of neighbour ids (each undirected edge appears twice).
    vwgt:
        float64 vertex weights (work per SD; the crack model makes these
        non-uniform).
    adjwgt:
        float64 edge weights (ghost-exchange volume between SDs).
    coords:
        optional ``(n, 2)`` float64 vertex coordinates, used by the
        geometric partitioners and by direction-uniform SD transfer.
    """

    def __init__(self, xadj: np.ndarray, adjncy: np.ndarray,
                 vwgt: Optional[np.ndarray] = None,
                 adjwgt: Optional[np.ndarray] = None,
                 coords: Optional[np.ndarray] = None) -> None:
        self.xadj = np.asarray(xadj, dtype=np.int64)
        self.adjncy = np.asarray(adjncy, dtype=np.int64)
        n = len(self.xadj) - 1
        if n < 0:
            raise ValueError("xadj must have at least one entry")
        if self.xadj[0] != 0 or self.xadj[-1] != len(self.adjncy):
            raise ValueError("xadj must start at 0 and end at len(adjncy)")
        if np.any(np.diff(self.xadj) < 0):
            raise ValueError("xadj must be non-decreasing")
        self.vwgt = (np.ones(n) if vwgt is None
                     else np.asarray(vwgt, dtype=np.float64))
        if len(self.vwgt) != n:
            raise ValueError(f"vwgt has length {len(self.vwgt)}, expected {n}")
        self.adjwgt = (np.ones(len(self.adjncy)) if adjwgt is None
                       else np.asarray(adjwgt, dtype=np.float64))
        if len(self.adjwgt) != len(self.adjncy):
            raise ValueError("adjwgt must parallel adjncy")
        if np.any(self.adjncy < 0) or (len(self.adjncy) and np.any(self.adjncy >= n)):
            raise ValueError("adjncy contains out-of-range vertex ids")
        self.coords = None if coords is None else np.asarray(coords, dtype=np.float64)
        if self.coords is not None and len(self.coords) != n:
            raise ValueError("coords must have one row per vertex")

    # -- basic queries -----------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.xadj) - 1

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of vertex ``v`` (CSR slice view)."""
        return self.adjncy[self.xadj[v]:self.xadj[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        """Weights parallel to :meth:`neighbors`."""
        return self.adjwgt[self.xadj[v]:self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        """Number of incident edges of ``v``."""
        return int(self.xadj[v + 1] - self.xadj[v])

    def total_vertex_weight(self) -> float:
        """Sum of all vertex weights."""
        return float(self.vwgt.sum())

    def connected_components(self) -> np.ndarray:
        """Label vertices by connected component (BFS); int64 array."""
        n = self.num_vertices
        labels = np.full(n, -1, dtype=np.int64)
        current = 0
        for seed in range(n):
            if labels[seed] != -1:
                continue
            stack = [seed]
            labels[seed] = current
            while stack:
                v = stack.pop()
                for u in self.neighbors(v):
                    if labels[u] == -1:
                        labels[u] = current
                        stack.append(int(u))
            current += 1
        return labels

    def is_connected(self) -> bool:
        """Whether the whole graph is a single component."""
        if self.num_vertices == 0:
            return True
        return bool(self.connected_components().max() == 0)

    def subgraph_is_connected(self, vertices: Sequence[int]) -> bool:
        """Whether the induced subgraph on ``vertices`` is connected.

        Used by the load balancer's contiguity checks (the paper insists
        SPs stay contiguous to keep the data exchange minimal).
        """
        vset = set(int(v) for v in vertices)
        if not vset:
            return True
        seed = next(iter(vset))
        seen = {seed}
        stack = [seed]
        while stack:
            v = stack.pop()
            for u in self.neighbors(v):
                ui = int(u)
                if ui in vset and ui not in seen:
                    seen.add(ui)
                    stack.append(ui)
        return len(seen) == len(vset)


def graph_from_edges(num_vertices: int,
                     edges: Iterable[Tuple[int, int]],
                     vwgt: Optional[Sequence[float]] = None,
                     edge_weights: Optional[Sequence[float]] = None,
                     coords: Optional[np.ndarray] = None) -> Graph:
    """Build a :class:`Graph` from an undirected edge list.

    Each edge ``(u, v)`` is stored in both directions.  Duplicate edges
    are merged with weights summed (this is what graph contraction needs).
    """
    edge_list = list(edges)
    if edge_weights is None:
        weights: List[float] = [1.0] * len(edge_list)
    else:
        weights = list(edge_weights)
        if len(weights) != len(edge_list):
            raise ValueError("edge_weights must parallel edges")
    merged: Dict[Tuple[int, int], float] = {}
    for (u, v), w in zip(edge_list, weights):
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) not allowed")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ValueError(f"edge ({u},{v}) out of range")
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + float(w)

    adj: List[List[Tuple[int, float]]] = [[] for _ in range(num_vertices)]
    for (u, v), w in merged.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    xadj = np.zeros(num_vertices + 1, dtype=np.int64)
    adjncy = np.empty(2 * len(merged), dtype=np.int64)
    adjwgt = np.empty(2 * len(merged), dtype=np.float64)
    pos = 0
    for v in range(num_vertices):
        adj[v].sort()
        for (u, w) in adj[v]:
            adjncy[pos] = u
            adjwgt[pos] = w
            pos += 1
        xadj[v + 1] = pos
    return Graph(xadj, adjncy, vwgt=None if vwgt is None else np.asarray(vwgt),
                 adjwgt=adjwgt, coords=coords)


def grid_dual_graph(nx: int, ny: int,
                    vwgt: Optional[Sequence[float]] = None,
                    diagonal: bool = False) -> Graph:
    """Dual graph of an ``nx × ny`` SD grid (paper Fig. 2 geometry).

    Vertex ``v = iy * nx + ix`` represents the SD at column ``ix``, row
    ``iy``; 4-neighbour edges model the ghost exchange between adjacent
    SDs (when the SD edge length exceeds the horizon ε, only immediate
    neighbours communicate — the regime the paper works in).  With
    ``diagonal=True``, 8-neighbour adjacency is used, modelling the corner
    exchange needed when the ball at an SD corner pokes into the diagonal
    neighbour; corner edges get weight ``0.25`` to reflect the much
    smaller overlap area.

    Coordinates are SD centers on the unit square, used by geometric
    partitioners and the direction-uniform transfer policy.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"grid must be at least 1x1, got {nx}x{ny}")
    edges: List[Tuple[int, int]] = []
    weights: List[float] = []
    for iy in range(ny):
        for ix in range(nx):
            v = iy * nx + ix
            if ix + 1 < nx:
                edges.append((v, v + 1))
                weights.append(1.0)
            if iy + 1 < ny:
                edges.append((v, v + nx))
                weights.append(1.0)
            if diagonal:
                if ix + 1 < nx and iy + 1 < ny:
                    edges.append((v, v + nx + 1))
                    weights.append(0.25)
                if ix > 0 and iy + 1 < ny:
                    edges.append((v, v + nx - 1))
                    weights.append(0.25)
    coords = np.empty((nx * ny, 2))
    for iy in range(ny):
        for ix in range(nx):
            coords[iy * nx + ix] = ((ix + 0.5) / nx, (iy + 0.5) / ny)
    return graph_from_edges(nx * ny, edges, vwgt=vwgt,
                            edge_weights=weights, coords=coords)
