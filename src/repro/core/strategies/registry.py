"""Balancing-strategy registry and the paper default behind ``"auto"``.

Selection follows :class:`repro.registry.Registry`: explicit names
(``"tree"``, ``"diffusion"``, ``"greedy"``, ``"repartition"``) are
honored as-is, ``"auto"`` resolves to the paper's algorithm
(:func:`auto_strategy_name` returns ``"tree"``).
"""

from __future__ import annotations

from ...mesh.subdomain import SubdomainGrid
from ...registry import AUTO, Registry
from .base import BalanceStrategy

__all__ = ["AUTO", "REGISTRY", "register_strategy", "strategy_names",
           "get_strategy_class", "auto_strategy_name", "make_strategy"]

REGISTRY = Registry("balancing strategy")
register_strategy = REGISTRY.register
strategy_names = REGISTRY.names
get_strategy_class = REGISTRY.get


def auto_strategy_name() -> str:
    """What ``"auto"`` falls back to: the paper's Algorithm 1."""
    return "tree"


def make_strategy(name: str, sd_grid: SubdomainGrid,
                  trigger_threshold: float = 1.0,
                  preserve_connectivity: bool = True) -> BalanceStrategy:
    """Instantiate the strategy ``name`` resolves to for this SD grid."""
    resolved = auto_strategy_name() if name == AUTO else name
    return get_strategy_class(resolved)(
        sd_grid, trigger_threshold=trigger_threshold,
        preserve_connectivity=preserve_connectivity)
