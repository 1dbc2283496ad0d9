"""The paper's primary contribution: SD-level load balancing (Sec. 7).

* :mod:`repro.core.power` — eqs. (8)-(10): node power from busy-time
  counters, expected SD shares, load imbalance.
* :mod:`repro.core.tree` — dependency tree + topological processing order.
* :mod:`repro.core.transfer` — direction-uniform, contiguity-preserving
  SD selection.
* :mod:`repro.core.strategies` — the pluggable balancing strategies
  (``tree`` = Algorithm 1, ``diffusion``, ``greedy``, ``repartition``)
  behind a name registry whose ``"auto"`` default is ``tree``.
* :mod:`repro.core.policy` — when-to-balance strategies (stateless).
"""

from .policy import (BalancePolicy, IntervalPolicy, NeverBalance,
                     ThresholdPolicy)
from .power import (compute_power, expected_sds, imbalance_ratio,
                    integer_targets)
from .strategies import (BalanceEvent, BalanceResult, BalanceStrategy,
                         is_uniform_work, make_strategy, strategy_names)
from .transfer import (TransferPlan, apply_transfers,
                       naive_select_transfers, select_transfers)
from .tree import DependencyTree, build_dependency_tree, topological_order

__all__ = [
    "BalanceEvent", "BalanceResult", "BalanceStrategy", "is_uniform_work",
    "make_strategy", "strategy_names",
    "BalancePolicy", "IntervalPolicy", "NeverBalance", "ThresholdPolicy",
    "compute_power", "expected_sds", "imbalance_ratio", "integer_targets",
    "TransferPlan", "apply_transfers", "naive_select_transfers",
    "select_transfers",
    "DependencyTree", "build_dependency_tree", "topological_order",
]
