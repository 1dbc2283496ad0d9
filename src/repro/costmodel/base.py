"""The cost-model interface: pluggable task-execution-time arithmetic.

Every layer that used to inline the flat ``count * flops * work_factor``
formula now describes a task as a :class:`WorkItem` and asks a
:class:`CostModel` for its cost.  Two things keep the refactor safe on
the simulator's bit-identical-schedule contract:

* A cost model maps a work item to **work units** (DP-update flops),
  not directly to seconds.  The DES converts work to virtual time
  through each node's :class:`repro.amt.cluster.SpeedTrace` exactly as
  before, so heterogeneous speeds, stragglers, and warm-up windows all
  compose with any cost model, and the wave-batching prefix sums
  operate on plain resolved floats.
* The default :class:`repro.costmodel.flat.FlatCostModel` evaluates the
  seed arithmetic in the same left-to-right order, so a flat-model run
  is bit-identical to the pre-refactor simulator (the parity tests pin
  this against the goldens).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WorkItem", "CostModel"]


@dataclass(frozen=True)
class WorkItem:
    """One task's workload, described instead of pre-multiplied.

    ``count * flops * work_factor`` is the flat work; the shape fields
    (``backend``, ``rows`` x ``cols``, ``radius``) let hierarchy-aware
    models look up the kernel's reuse-distance profile.  Shape fields
    default to "unknown" (empty/zero), in which case every model falls
    back to the flat arithmetic.
    """

    #: DP updates the task performs
    count: int
    #: flops per DP update (``operator.flops_per_dp()``)
    flops: float
    #: per-SD heterogeneity multiplier (cracks, eq. 8 weights)
    work_factor: float = 1.0
    #: kernel backend executing the numerics ("" = unknown)
    backend: str = ""
    #: block shape in DPs (0 = unknown)
    rows: int = 0
    cols: int = 0
    #: ghost/stencil radius in DPs
    radius: int = 0


class CostModel:
    """Maps :class:`WorkItem` s to work units (and derived seconds).

    Subclasses implement :meth:`task_work`; they must be deterministic,
    pure functions of the item (plus construction-time configuration)
    so that schedules stay bit-reproducible and the solver's step-plan
    cache stays valid.
    """

    #: registry name, set by ``@register_cost_model``
    name = "?"

    def task_work(self, item: WorkItem) -> float:
        """Work units (DP-update flops) the item costs on any node."""
        raise NotImplementedError

    def work_scale(self, item: WorkItem) -> float:
        """This model's work relative to the flat model for ``item``.

        The balancer's eq-8 measurement weighs per-SD work with
        ``work_factors * work_scale`` so its view of relative cost
        matches what the simulated tasks actually charged.  The flat
        base class returns 1.0 — the solver then passes its
        ``work_factors`` array through untouched (bit-identical to the
        seed's eq-8 inputs).
        """
        return 1.0
