"""Pluggable load-balancing strategies.

The paper's Algorithm 1 is one point in a design space; this package
makes the balancing layer a first-class strategy subsystem: a shared
:class:`BalanceStrategy` interface with the measurement preamble
(eqs. 8-10, integer targets, trigger threshold), a name registry (the
:class:`repro.registry.Registry` the kernel backends use) with
an ``"auto"`` default (the paper's ``tree``), and four implementations — ``tree`` (Algorithm 1), ``diffusion``,
``greedy``, and ``repartition``.  See DESIGN.md, *Balancing
strategies*.
"""

from .base import (BalanceEvent, BalanceResult, BalanceStrategy,
                   evacuate_assignments, is_uniform_work)
from .registry import (AUTO, auto_strategy_name, get_strategy_class,
                       make_strategy, register_strategy, strategy_names)

# importing the implementation modules registers them
from .diffusion import DiffusionStrategy
from .greedy import GreedyStrategy
from .repartition import RepartitionStrategy
from .tree import TreeStrategy

__all__ = [
    "BalanceEvent", "BalanceResult", "BalanceStrategy", "is_uniform_work",
    "evacuate_assignments",
    "AUTO", "auto_strategy_name", "get_strategy_class", "make_strategy",
    "register_strategy", "strategy_names",
    "DiffusionStrategy", "GreedyStrategy", "RepartitionStrategy",
    "TreeStrategy",
]
