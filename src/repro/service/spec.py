"""Declarative specifications for the multi-tenant solve service.

A :class:`ServiceSpec` describes an *open-loop* service experiment: many
virtual tenants submit solve jobs to one shared simulated cluster
according to a seeded arrival process, a :class:`repro.service.manager
.JobManager` admits or sheds them against bounded per-tenant queues, and
admitted jobs run as step-DAGs on the cluster.  Like every spec in
:mod:`repro.experiments.spec`, these are frozen, eagerly validated,
JSON-round-trippable value objects — the contract the parallel sweep
runner and the ``--json`` files rely on.

``ServiceSpec.to_dict`` carries a ``"solver": "service"`` marker so the
sweep worker (which only sees a payload dict across the process
boundary) can route service points to :func:`repro.service.runner
.run_service` instead of the scenario runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from ..codec import Codec
from ..experiments.spec import ClusterSpec, _require, _set

__all__ = ["ArrivalSpec", "TenantSpec", "AutoscaleSpec", "ServiceSpec"]


@dataclass(frozen=True)
class AutoscaleSpec(Codec):
    """Closed-loop fleet sizing for a service run (DESIGN.md sub. 6).

    When present on a :class:`ServiceSpec`, the runner wires an
    :class:`repro.amt.autoscale.AutoscaleController` over the cluster:
    it polls every ``poll_interval`` virtual seconds, feeds the named
    ``policy`` (only ``"target_utilization"`` today), and actuates the
    churn machinery within ``[min_nodes, max_nodes]`` — the cluster
    *starts* at ``cluster.num_nodes``, which must sit inside that band.
    Scale-out lands after ``provision_delay`` and runs its first
    ``warmup`` seconds at ``warmup_factor`` of full speed; scale-in
    drains the idlest node and retires it once empty.  The service
    thresholds default to ``inf`` (utilization-only scaling); finite
    values arm the corresponding signal.
    """

    policy: str = "target_utilization"
    poll_interval: float = 2.5e-4
    min_nodes: int = 2
    max_nodes: int = 8
    cooldown: float = 5e-4
    provision_delay: float = 5e-4
    warmup: float = 5e-4
    warmup_factor: float = 0.5
    scale_out_utilization: float = 0.85
    scale_in_utilization: float = 0.25
    max_p99_wait: float = math.inf
    max_shed_rate: float = math.inf
    max_queue_depth: float = math.inf
    breach_polls: int = 2
    low_polls: int = 4

    POLICIES = ("target_utilization",)

    def __post_init__(self) -> None:
        _require(self.policy in self.POLICIES,
                 f"unknown autoscale policy {self.policy!r}; "
                 f"expected one of {self.POLICIES}")
        _set(self, "poll_interval", float(self.poll_interval))
        _set(self, "min_nodes", int(self.min_nodes))
        _set(self, "max_nodes", int(self.max_nodes))
        _set(self, "cooldown", float(self.cooldown))
        _set(self, "provision_delay", float(self.provision_delay))
        _set(self, "warmup", float(self.warmup))
        _set(self, "warmup_factor", float(self.warmup_factor))
        _set(self, "scale_out_utilization",
             float(self.scale_out_utilization))
        _set(self, "scale_in_utilization", float(self.scale_in_utilization))
        _set(self, "max_p99_wait", float(self.max_p99_wait))
        _set(self, "max_shed_rate", float(self.max_shed_rate))
        _set(self, "max_queue_depth", float(self.max_queue_depth))
        _set(self, "breach_polls", int(self.breach_polls))
        _set(self, "low_polls", int(self.low_polls))
        _require(self.poll_interval > 0,
                 f"poll_interval must be > 0, got {self.poll_interval}")
        _require(1 <= self.min_nodes <= self.max_nodes,
                 f"need 1 <= min_nodes <= max_nodes, got "
                 f"[{self.min_nodes}, {self.max_nodes}]")
        _require(self.cooldown >= 0,
                 f"cooldown must be >= 0, got {self.cooldown}")
        _require(self.provision_delay >= 0,
                 f"provision_delay must be >= 0, got "
                 f"{self.provision_delay}")
        _require(self.warmup >= 0,
                 f"warmup must be >= 0, got {self.warmup}")
        _require(0 < self.warmup_factor <= 1,
                 f"warmup_factor must be in (0, 1], got "
                 f"{self.warmup_factor}")
        _require(self.scale_in_utilization < self.scale_out_utilization,
                 f"scale_in_utilization ({self.scale_in_utilization}) "
                 f"must be below scale_out_utilization "
                 f"({self.scale_out_utilization})")
        _require(self.breach_polls >= 1 and self.low_polls >= 1,
                 "breach_polls and low_polls must be >= 1")

    def build_policy(self):
        """The configured :class:`repro.amt.autoscale.AutoscalePolicy`
        instance (fresh per run — policies carry hysteresis state)."""
        from ..amt.autoscale import TargetUtilizationPolicy
        return TargetUtilizationPolicy(
            scale_out_utilization=self.scale_out_utilization,
            scale_in_utilization=self.scale_in_utilization,
            max_p99_wait=self.max_p99_wait,
            max_shed_rate=self.max_shed_rate,
            max_queue_depth=self.max_queue_depth,
            breach_polls=self.breach_polls,
            low_polls=self.low_polls)


@dataclass(frozen=True)
class ArrivalSpec(Codec):
    """The open-loop arrival process feeding the service.

    ``rate`` is the *aggregate* offered load in jobs per virtual second,
    split across tenants by their weights.  All three processes are
    seeded and deterministic — the same spec always replays the same
    trace (the bit-identical-repeats test pins this).

    Processes
    ---------
    ``poisson``
        Independent exponential inter-arrival gaps per tenant.
    ``bursty``
        An on/off modulated Poisson process: arrivals only during "on"
        windows of length ``burst_on`` (separated by ``burst_off`` of
        silence), at a rate inflated so the long-run average still
        matches ``rate``.
    ``diurnal``
        A sinusoidally modulated Poisson process (thinning construction):
        intensity ``rate * (1 + amplitude * sin(2*pi*t / period))``.
    """

    PROCESSES = ("poisson", "bursty", "diurnal")

    process: str = "poisson"
    rate: float = 1000.0
    seed: int = 0
    burst_on: float = 1e-3
    burst_off: float = 3e-3
    period: float = 1e-2
    amplitude: float = 0.8

    def __post_init__(self) -> None:
        _require(self.process in self.PROCESSES,
                 f"unknown arrival process {self.process!r}; "
                 f"expected one of {self.PROCESSES}")
        _set(self, "rate", float(self.rate))
        _set(self, "seed", int(self.seed))
        _set(self, "burst_on", float(self.burst_on))
        _set(self, "burst_off", float(self.burst_off))
        _set(self, "period", float(self.period))
        _set(self, "amplitude", float(self.amplitude))
        _require(self.rate >= 0, f"rate must be >= 0, got {self.rate}")
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        _require(self.burst_on > 0,
                 f"burst_on must be > 0, got {self.burst_on}")
        _require(self.burst_off >= 0,
                 f"burst_off must be >= 0, got {self.burst_off}")
        _require(self.period > 0, f"period must be > 0, got {self.period}")
        _require(0 <= self.amplitude < 1,
                 f"amplitude must be in [0, 1), got {self.amplitude}")


@dataclass(frozen=True)
class TenantSpec(Codec):
    """One virtual tenant: its share of the load and its job shape.

    Every job a tenant submits is the same mini solve: ``steps``
    relaxation sweeps of an ``nx`` x ``nx`` mesh with horizon
    ``eps_factor * h``, block-split across the whole cluster with a
    ring ghost exchange between sweeps.  Tenants with the same
    ``(nx, eps_factor)`` share one cached operator (the
    :func:`repro.experiments.cached_operator` key), which is the
    cross-job operator reuse the service exists to exercise.
    """

    name: str
    weight: float = 1.0
    nx: int = 32
    steps: int = 2
    eps_factor: float = 2.0

    def __post_init__(self) -> None:
        _require(isinstance(self.name, str) and bool(self.name),
                 "tenant name must be a non-empty string")
        _set(self, "weight", float(self.weight))
        _set(self, "nx", int(self.nx))
        _set(self, "steps", int(self.steps))
        _set(self, "eps_factor", float(self.eps_factor))
        _require(self.weight > 0,
                 f"tenant {self.name!r}: weight must be > 0, "
                 f"got {self.weight}")
        _require(self.nx >= 1,
                 f"tenant {self.name!r}: nx must be >= 1, got {self.nx}")
        _require(self.steps >= 1,
                 f"tenant {self.name!r}: steps must be >= 1, "
                 f"got {self.steps}")
        _require(self.eps_factor > 0,
                 f"tenant {self.name!r}: eps_factor must be positive, "
                 f"got {self.eps_factor}")


@dataclass(frozen=True)
class ServiceSpec(Codec):
    """One complete, runnable multi-tenant service experiment.

    The service replays ``arrival`` over ``[0, horizon)`` virtual
    seconds into a shared cluster built from ``cluster``.  Admission
    control bounds each tenant's FIFO queue at ``max_queue_depth``
    (overflow is shed, not blocked — the stream is open-loop), and at
    most ``max_concurrent`` admitted jobs run on the cluster at once.

    The service requires a fault-free cluster: recovery of in-flight
    *jobs* (as opposed to tasks) is a scheduling policy question the
    service layer does not answer yet, and silently dropping jobs on a
    node failure would corrupt the goodput accounting.
    """

    name: str
    tenants: Tuple[TenantSpec, ...]
    cluster: ClusterSpec = ClusterSpec()
    arrival: ArrivalSpec = ArrivalSpec()
    horizon: float = 1e-2
    max_queue_depth: int = 16
    max_concurrent: int = 8
    kernel_backend: str = "auto"
    cost_model: str = "auto"
    autoscale: Optional[AutoscaleSpec] = None

    def __post_init__(self) -> None:
        _require(isinstance(self.name, str) and bool(self.name),
                 "service name must be a non-empty string")
        _set(self, "tenants", tuple(self.tenants))
        _require(len(self.tenants) >= 1, "need at least one tenant")
        names = [t.name for t in self.tenants]
        _require(len(set(names)) == len(names),
                 f"tenant names must be unique, got {names}")
        _set(self, "horizon", float(self.horizon))
        _set(self, "max_queue_depth", int(self.max_queue_depth))
        _set(self, "max_concurrent", int(self.max_concurrent))
        _require(self.horizon > 0,
                 f"horizon must be > 0, got {self.horizon}")
        _require(self.max_queue_depth >= 1,
                 f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        _require(self.max_concurrent >= 1,
                 f"max_concurrent must be >= 1, got {self.max_concurrent}")
        _require(self.cluster.faults is None,
                 "the service layer requires a fault-free cluster "
                 "(job-level recovery is not defined)")
        # jobs must split over the largest fleet autoscaling can reach
        widest = (self.autoscale.max_nodes if self.autoscale is not None
                  else self.cluster.num_nodes)
        for t in self.tenants:
            _require(t.nx >= widest,
                     f"tenant {t.name!r}: nx={t.nx} rows cannot be "
                     f"block-split over {widest} nodes")
        if self.autoscale is not None:
            _require(self.autoscale.min_nodes <= self.cluster.num_nodes
                     <= self.autoscale.max_nodes,
                     f"cluster starts at {self.cluster.num_nodes} nodes, "
                     f"outside the autoscale band "
                     f"[{self.autoscale.min_nodes}, "
                     f"{self.autoscale.max_nodes}]")
        from ..solver.backends import backend_names
        _require(self.kernel_backend == "auto"
                 or self.kernel_backend in backend_names(),
                 f"unknown kernel backend {self.kernel_backend!r}; "
                 f"expected 'auto' or one of {tuple(backend_names())}")
        from ..costmodel import cost_model_names
        _require(self.cost_model == "auto"
                 or self.cost_model in cost_model_names(),
                 f"unknown cost model {self.cost_model!r}; "
                 f"expected 'auto' or one of {tuple(cost_model_names())}")

    @property
    def solver(self) -> str:
        """Dispatch marker: ``run_scenario`` routes on this, exactly
        like ``ScenarioSpec.solver`` selects serial vs distributed."""
        return "service"

    def replace(self, **changes: Any) -> "ServiceSpec":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        # the sweep-worker dispatch marker rides along with the fields
        return {**super().to_dict(), "solver": "service"}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ServiceSpec":
        d = dict(d)
        marker = d.pop("solver", "service")
        _require(marker == "service",
                 f"not a service spec (solver={marker!r})")
        return super().from_dict(d)
