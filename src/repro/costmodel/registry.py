"""Cost-model registry and the flat default behind ``"auto"``.

Selection follows :class:`repro.registry.Registry`: explicit names
(``"flat"``, ``"hierarchy"``) are honored as-is, ``"auto"`` consults
``REPRO_COST_MODEL`` (the CI ``costmodel-smoke`` job forces
``hierarchy`` over the whole suite this way) and otherwise resolves to
``"flat"`` — the seed arithmetic is the default, so every pre-existing
scenario and golden is unchanged.
"""

from __future__ import annotations

from ..registry import AUTO, Registry
from .base import CostModel

__all__ = ["AUTO", "DEFAULT", "ENV_VAR", "REGISTRY", "register_cost_model",
           "cost_model_names", "get_cost_model_class",
           "requested_cost_model", "make_cost_model"]

#: What ``"auto"`` resolves to absent an override: the seed arithmetic.
DEFAULT = "flat"
#: Environment variable forcing the resolution of ``"auto"`` requests.
ENV_VAR = "REPRO_COST_MODEL"

REGISTRY = Registry("cost model", ENV_VAR)
register_cost_model = REGISTRY.register
cost_model_names = REGISTRY.names
get_cost_model_class = REGISTRY.get
requested_cost_model = REGISTRY.requested


def make_cost_model(name: str = AUTO, memory=None) -> CostModel:
    """Instantiate the cost model ``name`` resolves to.

    ``memory`` is the :class:`repro.costmodel.hierarchy.MemoryHierarchy`
    from the cluster spec (``None`` = the model's own default); the
    flat model ignores it.
    """
    resolved = requested_cost_model(name)
    if resolved == AUTO:
        resolved = DEFAULT
    return get_cost_model_class(resolved)(memory=memory)
