"""Spectral bisection — an independent reference partitioner.

Partitions by the sign (weighted-median split) of the Fiedler vector,
the eigenvector of the graph Laplacian's second-smallest eigenvalue.
Spectral methods are the classical pre-multilevel benchmark (and the
quality bar Karypis & Kumar compared METIS against), so having one in
the library lets the ablation quantify the multilevel scheme against a
structurally different algorithm, not just geometric heuristics.

Implementation notes: the Laplacian is assembled from CSR triplets.
Graphs of at most 64 vertices take it dense into ``eigh``; larger ones
take it sparse into ``scipy.sparse.linalg.eigsh`` with a deflation shift,
falling back to dense ``eigh`` for ill-conditioned graphs.  K-way is
recursive bisection, like the multilevel driver.  Only the large-graph
path needs ``scipy.sparse``, so it imports it there: other runs never
load it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .graph import Graph, graph_from_edges

__all__ = ["fiedler_vector", "spectral_bisection", "spectral_partition"]


def _laplacian_triplets(
        graph: Graph) -> Tuple[List[int], List[int], List[float]]:
    """``(rows, cols, vals)`` of the weighted graph Laplacian."""
    n = graph.num_vertices
    rows, cols, vals = [], [], []
    for v in range(n):
        deg = 0.0
        for u, w in zip(graph.neighbors(v), graph.edge_weights(v)):
            rows.append(v)
            cols.append(int(u))
            vals.append(-float(w))
            deg += float(w)
        rows.append(v)
        cols.append(v)
        vals.append(deg)
    return rows, cols, vals


def fiedler_vector(graph: Graph) -> np.ndarray:
    """The eigenvector for the second-smallest Laplacian eigenvalue.

    Assumes a connected graph (the components would otherwise each
    contribute a zero eigenvalue and the "Fiedler" vector is just a
    component indicator).
    """
    n = graph.num_vertices
    if n < 2:
        raise ValueError("need at least two vertices")
    rows, cols, vals = _laplacian_triplets(graph)
    if n <= 64:
        # duplicates sum, as in the sparse assembly
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        return np.linalg.eigh(dense)[1][:, 1]
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh
    L = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    try:
        # shift-invert around 0 finds the smallest eigenvalues quickly
        vals, vecs = eigsh(L, k=2, sigma=-1e-8, which="LM")
        order = np.argsort(vals)
        return vecs[:, order[1]]
    except Exception:  # pragma: no cover - scipy solver corner cases
        vals, vecs = np.linalg.eigh(L.toarray())
        return vecs[:, 1]


def spectral_bisection(graph: Graph,
                       target_fraction: float = 0.5) -> np.ndarray:
    """Bisect by thresholding the Fiedler vector at its weighted quantile.

    Part 0 receives the vertices with the smallest Fiedler coordinates
    until it holds ``target_fraction`` of the vertex weight.
    """
    if not 0.0 < target_fraction < 1.0:
        raise ValueError(f"target_fraction must be in (0,1), got {target_fraction}")
    n = graph.num_vertices
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    fiedler = fiedler_vector(graph)
    order = np.argsort(fiedler, kind="stable")
    cum = np.cumsum(graph.vwgt[order])
    total = cum[-1]
    split = int(np.searchsorted(cum, target_fraction * total))
    split = min(max(split, 1), n - 1)
    parts = np.ones(n, dtype=np.int64)
    parts[order[:split]] = 0
    return parts


def spectral_partition(graph: Graph, k: int) -> np.ndarray:
    """K-way spectral partitioning via recursive bisection."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = graph.num_vertices
    parts = np.zeros(n, dtype=np.int64)
    if k == 1 or n == 0:
        return parts
    _recurse(graph, np.arange(n, dtype=np.int64), k, 0, parts)
    return parts


def _recurse(original: Graph, vertices: np.ndarray, k: int,
             first: int, parts: np.ndarray) -> None:
    if k == 1 or len(vertices) == 0:
        parts[vertices] = first
        return
    if len(vertices) == 1:
        parts[vertices] = first
        return
    sub = _induced(original, vertices)
    k_left = k // 2
    local = spectral_bisection(sub, target_fraction=k_left / k)
    left = vertices[local == 0]
    right = vertices[local == 1]
    if len(left) == 0 or len(right) == 0:
        half = max(1, len(vertices) * k_left // k)
        left, right = vertices[:half], vertices[half:]
    _recurse(original, left, k_left, first, parts)
    _recurse(original, right, k - k_left, first + k_left, parts)


def _induced(graph: Graph, vertices: np.ndarray) -> Graph:
    local_of = {int(v): i for i, v in enumerate(vertices)}
    edges, weights = [], []
    for i, v in enumerate(vertices):
        for u, w in zip(graph.neighbors(int(v)), graph.edge_weights(int(v))):
            j = local_of.get(int(u))
            if j is not None and i < j:
                edges.append((i, j))
                weights.append(float(w))
    coords = None if graph.coords is None else graph.coords[vertices]
    return graph_from_edges(len(vertices), edges, vwgt=graph.vwgt[vertices],
                            edge_weights=weights, coords=coords)
