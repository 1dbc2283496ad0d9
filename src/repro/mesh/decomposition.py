"""Domain decomposition: SP ownership, ghost messages, Case-1/Case-2 split.

Ties together the SD grid and a partition (node id per SD) into the
structures the distributed solver consumes each timestep:

* which node owns which SDs (the node's **SP**, paper Sec. 4);
* the **ghost messages** that must cross node boundaries (source node,
  destination node, DP rectangle, byte count);
* the per-SD split of DPs into **Case 1** (update depends on foreign
  data — must wait for ghosts) and **Case 2** (interior — computable
  immediately), the paper's Sec. 6.3 overlap mechanism.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .subdomain import Rect, SubdomainGrid

__all__ = ["GhostMessage", "CaseSplit", "Decomposition", "BYTES_PER_DP"]

#: Ghost payloads are float64 temperatures.
BYTES_PER_DP = 8


class GhostMessage:
    """One ghost-region transfer needed for a timestep.

    ``region`` (global DP coordinates) is owned by ``src_node`` and read
    by SD ``dst_sd`` on ``dst_node``.  Messages are per (source SD,
    destination SD) pair; the cluster's egress serialization models the
    aggregation behaviour of a real transport well enough for the
    schedule shapes studied here.
    """

    __slots__ = ("src_node", "dst_node", "src_sd", "dst_sd", "region")

    def __init__(self, src_node: int, dst_node: int, src_sd: int,
                 dst_sd: int, region: Rect) -> None:
        self.src_node = src_node
        self.dst_node = dst_node
        self.src_sd = src_sd
        self.dst_sd = dst_sd
        self.region = region

    @property
    def nbytes(self) -> int:
        """Payload size in bytes."""
        return self.region.area * BYTES_PER_DP

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Ghost sd{self.src_sd}(n{self.src_node}) -> "
                f"sd{self.dst_sd}(n{self.dst_node}) {self.region.area} DPs>")


class CaseSplit:
    """Case-1/Case-2 DP classification for one SD (paper Fig. 5).

    ``case1_mask`` marks DPs (within the SD's local block) whose stencil
    reaches into SDs owned by *other nodes*; their update must wait for
    ghost data.  ``case2`` DPs can be updated immediately from local data.
    """

    __slots__ = ("sd", "case1_mask", "case1_count", "case2_count")

    def __init__(self, sd: int, case1_mask: np.ndarray) -> None:
        self.sd = sd
        self.case1_mask = case1_mask
        self.case1_count = int(case1_mask.sum())
        self.case2_count = int(case1_mask.size - self.case1_count)

    @property
    def total(self) -> int:
        """DP count of the SD."""
        return self.case1_mask.size


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
        parts = np.asarray(parts, dtype=np.int64)
        if len(parts) != sd_grid.num_subdomains:
            raise ValueError(
                f"parts length {len(parts)} != SD count {sd_grid.num_subdomains}")
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if len(parts) and (parts.min() < 0 or parts.max() >= num_nodes):
            raise ValueError(
                f"part ids must lie in [0,{num_nodes}), got "
                f"[{parts.min()},{parts.max()}]")
        self.sd_grid = sd_grid
        self.parts = parts
        self.num_nodes = num_nodes

    # -- ownership ----------------------------------------------------------
    def owner(self, sd: int) -> int:
        """Node owning SD ``sd``."""
        return int(self.parts[sd])

    # -- communication ---------------------------------------------------------
    def ghost_messages(self, radius: int) -> List[GhostMessage]:
        """All cross-node ghost transfers for stencil ``radius``.

        One message per (foreign source SD, destination SD) halo overlap;
        same-node overlaps are excluded (shared memory inside a node).
        Ordering is deterministic: by destination SD, then source SD.
        """
        out: List[GhostMessage] = []
        for dst_sd in range(self.sd_grid.num_subdomains):
            dst_node = self.owner(dst_sd)
            for src_sd, region in self.sd_grid.halo_neighbors(dst_sd, radius):
                src_node = self.owner(src_sd)
                if src_node != dst_node:
                    out.append(GhostMessage(src_node, dst_node, src_sd,
                                            dst_sd, region))
        return out

    def exchange_bytes(self, radius: int) -> Dict[Tuple[int, int], int]:
        """Total ghost bytes per ordered ``(src_node, dst_node)`` pair."""
        out: Dict[Tuple[int, int], int] = {}
        for msg in self.ghost_messages(radius):
            key = (msg.src_node, msg.dst_node)
            out[key] = out.get(key, 0) + msg.nbytes
        return out

    def total_exchange_bytes(self, radius: int) -> int:
        """Total cross-node ghost bytes per timestep."""
        return sum(self.exchange_bytes(radius).values())

    def node_adjacency(self) -> List[Tuple[int, int]]:
        """Unordered node pairs with at least one SD face adjacency.

        This is the edge set of the load balancer's dependency tree
        (Algorithm 1 lines 13–18): nodes are connected iff an SD of one
        is adjacent to the SP of the other.
        """
        pairs = set()
        for sd in range(self.sd_grid.num_subdomains):
            a = self.owner(sd)
            for nb in self.sd_grid.face_neighbors(sd):
                b = self.owner(nb)
                if a != b:
                    pairs.add((min(a, b), max(a, b)))
        return sorted(pairs)

    # -- case split ----------------------------------------------------------
    def case_split(self, sd: int, radius: int) -> CaseSplit:
        """Classify the DPs of ``sd`` into Case 1 / Case 2 (paper Fig. 5).

        A DP is Case 1 iff its stencil ball intersects a DP rectangle
        owned by a different node.  Computed by marking, for each foreign
        halo overlap, the strip of the SD within ``radius`` of that
        overlap (exact for axis-aligned rectangles with the Chebyshev
        bound; we use the Euclidean-conservative Chebyshev strip which
        matches the square-stencil bounding box the solver exchanges).
        """
        rect = self.sd_grid.rect(sd)
        mask = np.zeros((rect.height, rect.width), dtype=bool)
        own = self.owner(sd)
        for src_sd, overlap in self.sd_grid.halo_neighbors(sd, radius):
            if self.owner(src_sd) == own:
                continue
            # DPs within `radius` (Chebyshev) of the overlap rectangle
            y0 = max(rect.y0, overlap.y0 - radius)
            y1 = min(rect.y1, overlap.y1 + radius)
            x0 = max(rect.x0, overlap.x0 - radius)
            x1 = min(rect.x1, overlap.x1 + radius)
            if y1 > y0 and x1 > x0:
                mask[y0 - rect.y0:y1 - rect.y0,
                     x0 - rect.x0:x1 - rect.x0] = True
        return CaseSplit(sd, mask)
