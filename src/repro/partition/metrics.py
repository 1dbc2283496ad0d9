"""Partition quality metrics: edge cut, balance, contiguity.

These are the quantities the paper's partitioning requirements are stated
in: METIS "ensures that the resulting partition is optimal and results in
minimum data exchange" (edge cut) while the load balancer must keep each
SP contiguous.  Every partitioner and the load balancer are validated
against these metrics in the test suite and compared in the ablation
benchmarks.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["edge_cut", "part_weights", "imbalance", "num_parts_used",
           "parts_are_contiguous", "PartitionReport",
           "evaluate_partition"]


def _check(graph: Graph, parts: np.ndarray) -> np.ndarray:
    parts = np.asarray(parts, dtype=np.int64)
    if len(parts) != graph.num_vertices:
        raise ValueError(
            f"partition length {len(parts)} != num vertices {graph.num_vertices}")
    if len(parts) and parts.min() < 0:
        raise ValueError("negative part id")
    return parts


def edge_cut(graph: Graph, parts: np.ndarray) -> float:
    """Total weight of edges whose endpoints lie in different parts.

    This is the quantity METIS minimizes; it is proportional to the ghost
    bytes exchanged per timestep by the distributed solver.
    """
    parts = _check(graph, parts)
    cut = 0.0
    for v in range(graph.num_vertices):
        nbrs = graph.neighbors(v)
        wgts = graph.edge_weights(v)
        mask = parts[nbrs] != parts[v]
        cut += float(wgts[mask].sum())
    return cut / 2.0  # every undirected edge was seen from both ends


def part_weights(graph: Graph, parts: np.ndarray, k: int) -> np.ndarray:
    """Vertex-weight sum per part (length ``k``)."""
    parts = _check(graph, parts)
    out = np.zeros(k)
    np.add.at(out, parts, graph.vwgt)
    return out


def imbalance(graph: Graph, parts: np.ndarray, k: int) -> float:
    """Max part weight divided by the ideal average (1.0 is perfect).

    Matches METIS's load-imbalance definition; a value of 1.05 means the
    heaviest part is 5% above average.
    """
    weights = part_weights(graph, parts, k)
    ideal = graph.total_vertex_weight() / k
    if ideal == 0:
        return 1.0
    return float(weights.max() / ideal)


def num_parts_used(parts: np.ndarray) -> int:
    """Number of distinct part ids actually present."""
    return len(np.unique(np.asarray(parts)))


def parts_are_contiguous(graph: Graph, parts: np.ndarray) -> bool:
    """Whether every part induces a connected subgraph.

    Empty parts count as contiguous.  The paper's transfer policy is
    designed to preserve this property ("retain a contiguous locality of
    the SDs").
    """
    parts = _check(graph, parts)
    for p in np.unique(parts):
        members = np.nonzero(parts == p)[0]
        if not graph.subgraph_is_connected(members):
            return False
    return True


class PartitionReport:
    """Bundle of quality metrics for one partition (see :func:`evaluate_partition`)."""

    def __init__(self, k: int, cut: float, imbalance_ratio: float,
                 contiguous: bool, parts_used: int,
                 weights: np.ndarray) -> None:
        self.k = k
        self.cut = cut
        self.imbalance = imbalance_ratio
        self.contiguous = contiguous
        self.parts_used = parts_used
        self.weights = weights

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PartitionReport k={self.k} cut={self.cut:.3g} "
                f"imb={self.imbalance:.3f} contig={self.contiguous}>")


def evaluate_partition(graph: Graph, parts: np.ndarray, k: int) -> PartitionReport:
    """Compute all quality metrics for ``parts`` at once."""
    return PartitionReport(
        k=k,
        cut=edge_cut(graph, parts),
        imbalance_ratio=imbalance(graph, parts, k),
        contiguous=parts_are_contiguous(graph, parts),
        parts_used=num_parts_used(parts),
        weights=part_weights(graph, parts, k),
    )
