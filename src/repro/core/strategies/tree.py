"""``tree`` — Algorithm 1, the paper's load balancing algorithm.

One balancing step (the measurement preamble — eqs. 8-10, integer
targets, trigger threshold — lives in the shared
:class:`repro.core.strategies.base.BalanceStrategy`):

1. root a BFS dependency tree at ``argmin(LoadImbalance)`` over the node
   adjacency induced by the current SD ownership (lines 13-18);
2. settle every tree edge with its **subtree flow**: the amount crossing
   edge (child, parent) is the summed residual of the child's subtree.
   On the paper's star example (Fig. 7) this reduces exactly to the
   published walk — every leaf settles its own imbalance against the
   hub (``XchngNum = imbalance / L`` with ``L = 1``) and the hub is
   balanced by conservation.  On general trees the aggregated form is
   required for termination: per-node uniform splitting can strand
   residual on tree leaves and drain intermediate nodes that later
   transfers need as relays.  Surplus flows run bottom-up first, deficit
   flows top-down second, so every transfer is physically realizable
   when it executes;
3. each individual exchange moves concrete SDs chosen by the
   direction-uniform, contiguity-preserving policy in
   :mod:`repro.core.transfer` (geometry can cap a transfer below the
   requested amount; the shortfall stays as residual and is retried at
   the next balancing step);
4. the caller that owns the busy-time counters resets them (line 35).

With heterogeneous per-SD work (the crack model), all quantities are in
work units rather than SD counts and transfers move SDs one at a time
until the settled work is within half an average SD of the share.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..transfer import TransferPlan
from ..tree import build_dependency_tree, node_adjacency, topological_order
from .base import BalanceStrategy, _StepContext
from .registry import register_strategy

__all__ = ["TreeStrategy"]


@register_strategy("tree")
class TreeStrategy(BalanceStrategy):
    """The paper's Algorithm 1: dependency-tree subtree flows."""

    def _rebalance(self, ctx: _StepContext) -> Tuple[np.ndarray, List[TransferPlan]]:
        # lines 13-19: dependency tree + processing order.  With an
        # elastic cluster the root must be a live node (a dead node has
        # no adjacency — rooting there would yield an edgeless tree and
        # stall every transfer).
        if ctx.active is None:
            root = int(np.argmin(ctx.imbalance))
        else:
            root = int(np.argmin(
                np.where(ctx.active, ctx.imbalance, np.inf)))
        adjacency = node_adjacency(self.sd_grid, ctx.parts)
        tree = build_dependency_tree(ctx.num_nodes, adjacency, root)
        order = topological_order(tree, ctx.num_nodes, leaves_first=False)

        # lines 21-34: settle every tree edge with its subtree flow.
        # The flow on edge (child, parent) is the summed residual of the
        # child's subtree: positive = the subtree as a whole needs SDs
        # (parent sends down), negative = it has surplus (child sends
        # up).  This is the exact-aggregation form of line 29's
        # "XchngNum = LoadImbalance / L" — on the paper's star topology
        # the two coincide.  Two passes keep every transfer physically
        # realizable: surplus flows first, bottom-up (a child has its
        # surplus in hand before its parent forwards it), then deficit
        # flows top-down (a parent receives from above before feeding
        # its children).
        subtree = ctx.residual.copy()
        for n in reversed(order):
            p = tree.parent[n]
            if p >= 0:
                subtree[p] += subtree[n]

        new_parts = ctx.parts.copy()
        all_plans: List[TransferPlan] = []
        half_sd = ctx.half_sd
        # pass 1 (bottom-up): children push surplus to their parents
        for n in reversed(order):
            p = tree.parent[n]
            if p >= 0 and subtree[n] < -half_sd:
                all_plans.extend(self._settle(
                    new_parts, donor=n, receiver=p, amount=-subtree[n],
                    sd_work=ctx.sd_work, half_sd=half_sd))
        # pass 2 (top-down): parents feed deficit subtrees
        for n in order:
            for c in tree.children.get(n, []):
                if subtree[c] > half_sd:
                    all_plans.extend(self._settle(
                        new_parts, donor=n, receiver=c, amount=subtree[c],
                        sd_work=ctx.sd_work, half_sd=half_sd))
        return new_parts, all_plans
