"""From-scratch graph/mesh partitioning — the METIS substitute.

The paper distributes SDs across nodes with ``METIS_PartMeshDual``; this
package implements the same multilevel scheme (Karypis–Kumar):
heavy-edge-matching coarsening (:mod:`repro.partition.coarsen`), greedy
graph-growing initial bisection (:mod:`repro.partition.initial`),
Fiduccia–Mattheyses refinement (:mod:`repro.partition.refine`), and a
recursive-bisection k-way driver (:mod:`repro.partition.kway`).  Geometric
baselines (:mod:`repro.partition.geometric`) reproduce the paper's manual
1/2/4-node layouts and anchor the ablation benchmarks.
"""

from .coarsen import CoarseLevel, coarsen_level, contract, heavy_edge_matching
from .geometric import (block_partition, grid_blocks_for_k,
                        recursive_coordinate_bisection, strip_partition)
from .graph import Graph, graph_from_edges, grid_dual_graph
from .initial import best_bisection, grow_bisection, pseudo_peripheral_vertex
from .kway import multilevel_bisection, partition_graph, partition_sd_grid
from .metrics import (PartitionReport, edge_cut, evaluate_partition,
                      imbalance, num_parts_used, part_weights,
                      parts_are_contiguous)
from .placement import (apply_placement, part_affinity, rack_aware_mapping,
                        scattered_mapping)
from .refine import compute_gains, fm_refine_bisection
from .spectral import fiedler_vector, spectral_bisection, spectral_partition

__all__ = [
    "CoarseLevel", "coarsen_level", "contract", "heavy_edge_matching",
    "block_partition", "grid_blocks_for_k",
    "recursive_coordinate_bisection", "strip_partition",
    "Graph", "graph_from_edges", "grid_dual_graph",
    "best_bisection", "grow_bisection", "pseudo_peripheral_vertex",
    "multilevel_bisection", "partition_graph", "partition_sd_grid",
    "PartitionReport", "edge_cut",
    "evaluate_partition", "imbalance", "num_parts_used",
    "part_weights", "parts_are_contiguous",
    "apply_placement", "part_affinity", "rack_aware_mapping",
    "scattered_mapping",
    "compute_gains", "fm_refine_bisection",
    "fiedler_vector", "spectral_bisection", "spectral_partition",
]
