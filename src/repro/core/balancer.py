"""The load-balancer facade over the pluggable strategy subsystem.

Algorithm 1 itself now lives in :mod:`repro.core.strategies.tree`; its
classic alternatives (``diffusion``, ``greedy``, ``repartition``) sit
beside it behind the shared :class:`repro.core.strategies.base
.BalanceStrategy` interface and name registry.  :class:`LoadBalancer`
is the stable entry point the solvers and tests use: it resolves a
strategy *name* (``"auto"`` is the paper's algorithm) and delegates
``balance_step`` to it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..mesh.subdomain import SubdomainGrid
from .strategies import BalanceResult, BalanceStrategy, make_strategy

__all__ = ["BalanceResult", "LoadBalancer"]


class LoadBalancer:
    """A balancing strategy bound to an SD grid.

    Parameters
    ----------
    sd_grid:
        SD geometry (for adjacency and transfer selection).
    trigger_threshold:
        Minimum ``max |target - current|`` (in average-SD work units)
        required to act; below it the step is a no-op.
    preserve_connectivity:
        Forwarded to the transfer policy.
    strategy:
        A registered strategy name (``"tree"``, ``"diffusion"``,
        ``"greedy"``, ``"repartition"``), ``"auto"`` (the paper's
        algorithm), or a prebuilt :class:`BalanceStrategy` instance.
        Resolution happens here, at construction, so a run's strategy
        is fixed up front.
    """

    def __init__(self, sd_grid: SubdomainGrid,
                 trigger_threshold: float = 1.0,
                 preserve_connectivity: bool = True,
                 strategy: Union[str, BalanceStrategy] = "auto") -> None:
        if isinstance(strategy, BalanceStrategy):
            self._strategy = strategy
        else:
            self._strategy = make_strategy(
                strategy, sd_grid, trigger_threshold=trigger_threshold,
                preserve_connectivity=preserve_connectivity)
        self.sd_grid = sd_grid
        self.trigger_threshold = trigger_threshold
        self.preserve_connectivity = preserve_connectivity

    @property
    def name(self) -> str:
        """The resolved strategy name (telemetry records this)."""
        return self._strategy.name

    def balance_step(self, parts: Sequence[int], num_nodes: int,
                     busy_times: Sequence[float],
                     work_per_sd: Optional[Sequence[float]] = None,
                     active: Optional[Sequence[bool]] = None) -> BalanceResult:
        """Run one balancing step; returns the new ownership and diagnostics.

        See :meth:`repro.core.strategies.base.BalanceStrategy
        .balance_step` for the parameters (``active`` is the elastic
        cluster's per-node liveness mask).
        """
        return self._strategy.balance_step(parts, num_nodes, busy_times,
                                           work_per_sd=work_per_sd,
                                           active=active)

    def __repr__(self) -> str:
        return f"LoadBalancer(strategy={self.name!r})"
