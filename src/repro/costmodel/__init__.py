"""Pluggable task-cost models (DESIGN.md, *Substitution 7*).

``flat`` reproduces the seed's ``count * flops * work_factor``
arithmetic bit for bit and is the default; ``hierarchy`` prices each
task against a per-node memory hierarchy through offline reuse-distance
profiles of the kernel backends.  Selection goes through the shared
:class:`repro.registry.Registry`: explicit names win and ``"auto"``
resolves to ``flat``.
"""

from .base import CostModel, WorkItem
from .flat import FLAT, FlatCostModel
from .hierarchy import (DEFAULT_HIERARCHY, HierarchyCostModel,
                        MemoryHierarchy, MemoryLevel, REFERENCE_RATE)
from .profiler import ReuseProfile, reuse_profile
from .registry import (AUTO, DEFAULT, cost_model_names,
                       get_cost_model_class, make_cost_model,
                       register_cost_model)

__all__ = [
    "CostModel", "WorkItem",
    "FLAT", "FlatCostModel",
    "MemoryLevel", "MemoryHierarchy", "DEFAULT_HIERARCHY",
    "HierarchyCostModel", "REFERENCE_RATE",
    "ReuseProfile", "reuse_profile",
    "AUTO", "DEFAULT", "register_cost_model", "cost_model_names",
    "get_cost_model_class", "make_cost_model",
]
