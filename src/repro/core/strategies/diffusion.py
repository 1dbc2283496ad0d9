"""``diffusion`` — first-order diffusive exchange over node adjacency.

The classic alternative to the paper's tree walk (Cybenko-style
first-order diffusion): every node settles a fraction of its load
*gradient* with each neighbor in the node-adjacency graph, no global
coordination.  One balancing step is one Jacobi sweep — flows are
computed from the pre-sweep deviations, so the edge processing order
does not change the requested amounts and the step stays deterministic.

The diffusion coefficient is the safe uniform choice
``alpha = 1 / (1 + max_degree)``: a node never promises more than its
whole surplus across all of its edges in a single sweep.  Compared with
``tree`` the per-step movement is local and conservative — several
sweeps are needed to drain a concentrated hotspot (the Fig. 14 corner
start), but under smoothly drifting load the local exchanges track the
gradient without re-routing SDs across the whole cluster.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..transfer import TransferPlan
from ..tree import node_adjacency
from .base import BalanceStrategy, _StepContext
from .registry import register_strategy

__all__ = ["DiffusionStrategy"]


@register_strategy("diffusion")
class DiffusionStrategy(BalanceStrategy):
    """Neighbor-pairwise first-order diffusive exchange."""

    def _rebalance(self, ctx: _StepContext) -> Tuple[np.ndarray, List[TransferPlan]]:
        adjacency = node_adjacency(self.sd_grid, ctx.parts)
        new_parts = ctx.parts.copy()
        if not adjacency:
            return new_parts, []
        degree = np.zeros(ctx.num_nodes)
        for a, b in adjacency:
            degree[a] += 1
            degree[b] += 1
        alpha = 1.0 / (1.0 + float(degree.max()))

        # deviation from target: positive = overloaded (wants to shed)
        deviation = -ctx.residual
        plans: List[TransferPlan] = []
        for a, b in adjacency:  # sorted pairs — deterministic sweep
            flow = alpha * (deviation[a] - deviation[b])
            if flow > ctx.half_sd:
                plans.extend(self._settle(
                    new_parts, donor=a, receiver=b, amount=flow,
                    sd_work=ctx.sd_work, half_sd=ctx.half_sd))
            elif flow < -ctx.half_sd:
                plans.extend(self._settle(
                    new_parts, donor=b, receiver=a, amount=-flow,
                    sd_work=ctx.sd_work, half_sd=ctx.half_sd))
        return new_parts, plans
