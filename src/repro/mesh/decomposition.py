"""Domain decomposition: SP ownership, ghost messages, Case-1/Case-2 split.

Ties together the SD grid and a partition (node id per SD) into the
structures the distributed solver consumes each timestep:

* which node owns which SDs (the node's **SP**, paper Sec. 4);
* the **ghost messages** that must cross node boundaries (source node,
  destination node, source and destination SD, byte count);
* the per-SD split of DPs into **Case 1** (update depends on foreign
  data — must wait for ghosts) and **Case 2** (interior — computable
  immediately), the paper's Sec. 6.3 overlap mechanism.

The geometry behind both — halo pairs, their byte counts and Case-1
strips — does not depend on ownership: it is the grid's memoized
:class:`~repro.mesh.subdomain.HaloTable`.  A decomposition only masks
and gathers it by ``parts``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .subdomain import BYTES_PER_DP, SubdomainGrid

__all__ = ["Decomposition", "BYTES_PER_DP", "check_parts"]

#: ``Decomposition.ghost_messages``: parallel ``src_node, dst_node,
#: src_sd, dst_sd, nbytes`` lists
GhostColumns = Tuple[List[int], List[int], List[int], List[int], List[int]]


def check_parts(parts, num_subdomains: int, num_nodes: int) -> np.ndarray:
    """``parts`` as an int64 array, checked to name a node per SD.

    Raises ``ValueError`` unless there is one part id per SD, at least
    one node, and every id lies in ``[0, num_nodes)``.
    """
    parts = np.asarray(parts, dtype=np.int64)
    if len(parts) != num_subdomains:
        raise ValueError(
            f"parts length {len(parts)} != SD count {num_subdomains}")
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if len(parts) and (parts.min() < 0 or parts.max() >= num_nodes):
        raise ValueError(
            f"part ids must lie in [0,{num_nodes}), got "
            f"[{parts.min()},{parts.max()}]")
    return parts


class Decomposition:
    """A (SubdomainGrid, partition) pair with derived communication data.

    Parameters
    ----------
    sd_grid:
        The SD geometry.
    parts:
        int array, node id per SD (``len == sd_grid.num_subdomains``).
    num_nodes:
        Number of compute nodes; part ids must lie in ``[0, num_nodes)``.
    """

    def __init__(self, sd_grid: SubdomainGrid, parts: np.ndarray,
                 num_nodes: int) -> None:
        self.sd_grid = sd_grid
        self.parts = check_parts(parts, sd_grid.num_subdomains, num_nodes)
        self.num_nodes = num_nodes

    # -- communication ---------------------------------------------------------
    def ghost_messages(self, radius: int,
                       active: Optional[np.ndarray] = None) -> GhostColumns:
        """All cross-node ghost transfers for stencil ``radius``.

        One entry per halo pair whose SDs live on different nodes;
        same-node overlaps are excluded (shared memory inside a node).
        With an SD mask ``active``, pairs touching an inactive SD are
        dropped too.  Ordering is deterministic: by destination SD, then
        source SD.  Returned as five parallel lists of plain ints,
        ``(src_node, dst_node, src_sd, dst_sd, nbytes)``: a 4096-SD
        compile builds no per-message object it does not keep.
        """
        table = self.sd_grid.halo_table(radius)
        src_node = self.parts[table.src]
        dst_node = self.parts[table.dst]
        keep = src_node != dst_node
        if active is not None:
            keep &= active[table.src] & active[table.dst]
        return (src_node[keep].tolist(), dst_node[keep].tolist(),
                table.src[keep].tolist(), table.dst[keep].tolist(),
                table.nbytes[keep].tolist())

    def total_exchange_bytes(self, radius: int) -> int:
        """Total cross-node ghost bytes per timestep."""
        table = self.sd_grid.halo_table(radius)
        cross = self.parts[table.src] != self.parts[table.dst]
        return int(table.nbytes[cross].sum())

    # -- case split ----------------------------------------------------------
    def case_split(self, radius: int) -> np.ndarray:
        """Case-1 DP count of every SD (paper Fig. 5); int64, SD order.

        A DP is Case 1 iff its stencil ball intersects a DP rectangle
        owned by a different node; the rest of the SD's DPs are Case 2.
        Each foreign halo overlap marks the strip of the SD within
        ``radius`` of it (the Chebyshev strip, which matches the
        square-stencil bounding box the solver exchanges), and the count
        is the area of the union of those strips.
        """
        return self.sd_grid.halo_table(radius).case1_counts(self.parts)
