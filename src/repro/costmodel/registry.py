"""Cost-model registry and the flat default behind ``"auto"``.

Selection follows :class:`repro.registry.Registry`: explicit names
(``"flat"``, ``"hierarchy"``) are honored as-is, ``"auto"`` resolves to
``"flat"`` — the seed arithmetic is the default, so every pre-existing
scenario and golden is unchanged.
"""

from __future__ import annotations

from ..registry import AUTO, Registry
from .base import CostModel

__all__ = ["AUTO", "DEFAULT", "REGISTRY", "register_cost_model",
           "cost_model_names", "get_cost_model_class", "make_cost_model"]

#: What ``"auto"`` resolves to: the seed arithmetic.
DEFAULT = "flat"

REGISTRY = Registry("cost model")
register_cost_model = REGISTRY.register
cost_model_names = REGISTRY.names
get_cost_model_class = REGISTRY.get


def make_cost_model(name: str = AUTO, memory=None) -> CostModel:
    """Instantiate the cost model ``name`` resolves to.

    ``memory`` is the :class:`repro.costmodel.hierarchy.MemoryHierarchy`
    from the cluster spec (``None`` = the model's own default); the
    flat model ignores it.
    """
    resolved = DEFAULT if name == AUTO else name
    return get_cost_model_class(resolved)(memory=memory)
