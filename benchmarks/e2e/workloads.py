"""The four end-to-end workloads: registry scenarios with fixed overrides.

Each workload stresses a different layer of ``repro`` (see README.md for
why each exists and which metrics it should move).  ``shrunk`` holds the
overrides the smoke test uses instead of ``overrides``: the same code
paths at a size that runs in well under a second.

Nothing here imports ``repro`` at module level: the worker times the
cold import itself, so the package is only reached through the
functions below, after that import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple


@dataclass(frozen=True)
class Workload:
    #: registry scenario the spec is built from
    scenario: str
    #: keyword overrides passed to the scenario factory
    overrides: Dict[str, Any]
    #: overrides used instead of ``overrides`` by the smoke test
    shrunk: Dict[str, Any]
    #: whether the factory takes the benchmark's ``--seed``
    seeded: bool = True
    #: spec fields replaced after the factory ran
    replace: Dict[str, Any] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    # batched DES loop, task submission and one 4096-SD plan compile;
    # no balancer, no kernels, a small record
    "schedule_extreme": Workload(
        "scale_extreme", {"steps": 6},
        shrunk={"mesh": 256, "sd_axis": 16, "nodes": 16, "steps": 2},
        seeded=False),
    # Algorithm 1 every step across a straggle, a failure and a join:
    # per-event DES path, plan recompiles, METIS partitioning and
    # hierarchy cost-model pricing
    "churn_rebalance": Workload(
        "hetero_churn",
        {"mesh": 512, "sd_axis": 32, "nodes": 16, "steps": 32},
        shrunk={"mesh": 128, "sd_axis": 8, "nodes": 4, "steps": 12},
        replace={"cost_model": "hierarchy"}),
    # real temperatures: the FFT kernel at radius 8 and the manufactured
    # solution do the work, the DES is small
    "numerics": Workload(
        "quickstart", {"nx": 512, "sd_axis": 8, "nodes": 8, "steps": 120},
        shrunk={"nx": 64, "sd_axis": 4, "nodes": 4, "steps": 4}),
    # arrival pump, admission control, telemetry and a multi-MB record;
    # no mesh plan, no balancer
    "service_shed": Workload(
        "service_extreme", {"horizon": 1e-2},
        shrunk={"horizon": 2e-4}),
}


def build_spec(name: str, seed: int, shrink: bool = False):
    """The spec of workload ``name`` for ``seed``, via the registry."""
    import repro.experiments as ex
    w = WORKLOADS[name]
    kwargs = dict(w.shrunk if shrink else w.overrides)
    if w.seeded:
        kwargs["seed"] = seed
    spec = ex.build(w.scenario, **kwargs)
    return spec.replace(**w.replace) if w.replace else spec


def discretizations(spec) -> List[Tuple[int, int, float, str]]:
    """Every distinct ``cached_operator`` key a run of ``spec`` reads."""
    if spec.solver == "service":
        keys = {(t.nx, t.nx, t.eps_factor, spec.kernel_backend)
                for t in spec.tenants}
    else:
        keys = {(spec.mesh.nx, spec.mesh.ny, spec.mesh.eps_factor,
                 spec.kernel_backend)}
    return sorted(keys)


def work_units(spec, offered: int) -> float:
    """Work done by one run: DP updates for solvers, offered jobs for
    the service."""
    if spec.solver == "service":
        return float(offered)
    return float(spec.mesh.nx * spec.mesh.ny * spec.num_steps)
