"""Spec → stack construction, scenario execution, and the sweep runner.

This is the single place in the repository where a scenario description
is turned into running code:

* :func:`cached_operator` — an LRU cache over ``(nx, ny, eps_factor,
  backend)`` for the :class:`NonlocalOperator` neighborhood assembly,
  the dominant repeated cost when a sweep revisits the same
  discretization (every strong-scaling figure runs many node counts on
  one mesh); the backend is part of the key so scenarios pinning
  different kernel backends never share an operator;
* :func:`build_solver` — grid → decomposition → partition → simulated
  cluster → solver from a :class:`ScenarioSpec`;
* :func:`run_scenario` — executes one spec and returns a
  :class:`RunRecord`;
* :func:`run_sweep` — fans independent scenario points across a
  ``ProcessPoolExecutor`` with deterministic, input-ordered results that
  are bit-identical to serial execution (the simulation itself is
  deterministic; records carry only plain JSON types).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from .results import RunRecord
from .spec import ScenarioSpec

__all__ = ["cached_operator", "operator_cache_info", "clear_operator_cache",
           "build_problem", "build_work_factors", "build_parts",
           "build_solver", "ownership_timeline", "run_scenario", "run_sweep"]


@lru_cache(maxsize=64)
def _cached_operator(nx: int, ny: int, eps_factor: float, backend: str):
    from ..mesh.grid import UniformGrid
    from ..solver.kernel import NonlocalOperator
    from ..solver.model import NonlocalHeatModel
    grid = UniformGrid(nx, ny)
    model = NonlocalHeatModel(epsilon=eps_factor * grid.h)
    return NonlocalOperator(model, grid, backend=backend)


def cached_operator(nx: int, ny: int, eps_factor: float,
                    backend: str = "auto"):
    """The :class:`NonlocalOperator` for an ``nx x ny`` mesh, eps = f·h.

    Builds (and memoizes) the grid, the default nonlocal heat model, and
    the stencil/neighborhood assembly.  The returned operator is
    immutable and shared freely between solvers; grid and model hang off
    it as ``operator.grid`` / ``operator.model``.

    ``backend`` is part of the cache key: an ``"fft"`` operator (with
    its cached mask transforms) is a different object from a
    ``"direct"`` one.  The key is *fully resolved* before memoization:
    ``"auto"`` is resolved by the radius heuristic from
    ``R = floor(eps_factor)`` — so omitting the argument, passing
    ``"auto"``, and naming the backend ``auto`` resolves to all share
    one entry (a backend sweep does not rebuild the auto-selected
    operator).
    """
    from ..solver.backends import AUTO, auto_backend_name
    name = str(backend)
    if name == AUTO:
        # same inclusion tolerance as build_stencil: eps = eps_factor*h
        name = auto_backend_name(int(np.floor(
            float(eps_factor) * (1 + 1e-12))))
    return _cached_operator(int(nx), int(ny), float(eps_factor), name)


def operator_cache_info():
    """``functools`` cache statistics of the operator cache."""
    return _cached_operator.cache_info()


def clear_operator_cache() -> None:
    _cached_operator.cache_clear()


def build_problem(spec: ScenarioSpec):
    """``(operator, model, grid, sd_grid)`` for a scenario's mesh."""
    op = cached_operator(spec.mesh.nx, spec.mesh.ny, spec.mesh.eps_factor,
                         spec.kernel_backend)
    return op, op.model, op.grid, spec.mesh.build_sd_grid()


def build_work_factors(spec: ScenarioSpec) -> Optional[np.ndarray]:
    """Per-SD work multipliers: explicit ``work_factors``, else cracks."""
    if spec.work_factors is not None:
        return np.asarray(spec.work_factors, dtype=np.float64)
    if not spec.cracks:
        return None
    from ..models.crack import Crack, crack_work_factors
    _, model, _, sd_grid = build_problem(spec)
    cracks = [Crack(list(polyline)) for polyline in spec.cracks]
    return crack_work_factors(
        sd_grid, cracks, horizon=spec.crack_horizon_factor * model.epsilon,
        floor=spec.crack_floor)


def build_parts(spec: ScenarioSpec, network=None) -> np.ndarray:
    """The initial SD → node assignment, placement applied.

    Builds the partition, then — when the partition spec asks for a
    non-trivial ``placement`` — permutes part labels onto nodes using
    the network topology's rack assignment (see
    :mod:`repro.partition.placement`).  ``network`` avoids rebuilding
    the topology when the caller already has one.
    """
    parts = spec.partition.build(spec.mesh.sd_nx, spec.mesh.sd_ny,
                                 spec.cluster.num_nodes)
    if spec.partition.placement != "none":
        from ..partition.placement import apply_placement
        if network is None:
            network = spec.cluster.build_network()
        node_racks = [network.rack_of(n)
                      for n in range(spec.cluster.num_nodes)]
        parts = apply_placement(spec.mesh.build_sd_grid(), parts,
                                node_racks, spec.partition.placement)
    return parts


def build_solver(spec: ScenarioSpec, source=None):
    """The fully wired :class:`DistributedSolver` for ``spec``."""
    if spec.solver != "distributed":
        raise ValueError(f"spec {spec.name!r} is not a distributed scenario")
    from ..solver.distributed import DistributedSolver
    op, model, grid, sd_grid = build_problem(spec)
    network = spec.cluster.build_network()
    parts = build_parts(spec, network=network)
    return DistributedSolver(
        model, grid, sd_grid, parts,
        num_nodes=spec.cluster.num_nodes,
        cores_per_node=spec.cluster.cores_per_node,
        speeds=spec.cluster.build_speeds(),
        network=network,
        source=source,
        dt=spec.dt,
        work_factors=build_work_factors(spec),
        balancer=spec.policy.balancer,  # the solver resolves the name
        policy=spec.policy.build(),
        overlap=spec.overlap,
        compute_numerics=spec.compute_numerics,
        spawn_overhead=spec.cluster.spawn_overhead,
        operator=op,
        faults=spec.cluster.build_faults(),
        cost_model=spec.cost_model,  # the solver resolves the name
        memory=spec.cluster.build_memory())


def ownership_timeline(spec: ScenarioSpec,
                       record: RunRecord) -> List[np.ndarray]:
    """SD ownership per timestep: initial parts + one frame per step.

    ``record.parts_events`` only holds the balancing events that moved
    SDs; this reconstructs the full per-iteration sequence (carrying
    ownership forward through steps with no movement), which is what
    the Fig. 14 demo and ``repro balance`` render.
    """
    parts = build_parts(spec)
    events = {step: np.asarray(p, dtype=np.int64)
              for step, p in record.parts_events}
    frames = [parts.copy()]
    for step in range(record.num_steps):
        parts = events.get(step, parts)
        frames.append(parts.copy())
    return frames


def _run_serial(spec: ScenarioSpec) -> RunRecord:
    from ..solver.exact import ManufacturedProblem
    from ..solver.serial import SerialSolver
    op, model, grid, _ = build_problem(spec)
    prob = ManufacturedProblem(model, grid, source_mode=spec.source_mode)
    solver = SerialSolver(model, grid, source=prob.source, dt=spec.dt,
                          operator=op)
    res = solver.run(prob.initial_condition(), spec.num_steps,
                     exact=prob.exact if spec.track_error else None)
    errors = None if res.errors is None else [float(e) for e in res.errors]
    return RunRecord(
        scenario=spec.name, solver="serial", spec=spec.to_dict(),
        num_steps=spec.num_steps, dt=float(solver.dt),
        errors=errors, total_error=res.total_error,
        backend_resolved=solver.operator.backend_name)


def _run_distributed(spec: ScenarioSpec) -> RunRecord:
    source = exact = u0 = None
    if spec.compute_numerics:
        from ..solver.exact import ManufacturedProblem
        _, model, grid, _ = build_problem(spec)
        prob = ManufacturedProblem(model, grid, source_mode=spec.source_mode)
        source = prob.source
        u0 = prob.initial_condition()
        if spec.track_error:
            exact = prob.exact
    solver = build_solver(spec, source=source)
    res = solver.run(u0, spec.num_steps, exact=exact)
    errors = None if res.errors is None else [float(e) for e in res.errors]
    return RunRecord(
        scenario=spec.name, solver="distributed", spec=spec.to_dict(),
        num_steps=spec.num_steps, dt=float(solver.dt),
        makespan=float(res.makespan),
        step_durations=[float(d) for d in res.step_durations],
        imbalance_history=[float(r) for r in res.imbalance_history],
        ghost_bytes=int(res.ghost_bytes),
        bytes_by_class={str(k): int(v)
                        for k, v in sorted(res.bytes_by_class.items())},
        balance_events=[e.to_dict() for e in res.balance_events],
        recovery_events=[e.to_dict() for e in res.recovery_events],
        parts_events=[[int(step), [int(p) for p in parts]]
                      for step, parts in res.parts_history],
        final_parts=[int(p) for p in solver.parts],
        busy_total=[float(b) for b in res.busy_total],
        errors=errors, total_error=res.total_error,
        backend_resolved=solver.operator.backend_name,
        balancer_resolved=solver.balancer.name,
        cost_model_resolved=solver.cost_model_resolved)


def run_scenario(spec) -> RunRecord:
    """Execute one scenario point and collect its :class:`RunRecord`.

    Accepts :class:`ScenarioSpec` *or* :class:`repro.service
    .ServiceSpec` — the ``solver`` attribute routes, so sweeps may mix
    solver and service points freely.
    """
    if spec.solver == "service":
        from ..service.runner import run_service
        return run_service(spec)
    if spec.solver == "serial":
        return _run_serial(spec)
    return _run_distributed(spec)


def _sweep_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Child-process entry point: dict in, dict out (both picklable)."""
    if payload.get("solver") == "service":
        from ..service.spec import ServiceSpec
        return run_scenario(ServiceSpec.from_dict(payload)).to_dict()
    return run_scenario(ScenarioSpec.from_dict(payload)).to_dict()


def run_sweep(specs: Iterable[ScenarioSpec],
              max_workers: Optional[int] = None,
              serial: bool = False) -> List[RunRecord]:
    """Run independent scenario points, results in input order.

    With ``serial=False`` (the default) the points fan out across a
    ``ProcessPoolExecutor``; ``executor.map`` preserves input order, and
    because the simulation is deterministic and records carry only plain
    JSON types, the parallel records are bit-identical to what
    ``serial=True`` produces in this process.  Single-point sweeps skip
    the pool.
    """
    specs = list(specs)
    if serial or len(specs) <= 1:
        return [run_scenario(s) for s in specs]
    workers = min(len(specs), max_workers or os.cpu_count() or 1)
    payloads = [s.to_dict() for s in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        dicts = list(pool.map(_sweep_worker, payloads))
    return [RunRecord.from_dict(d) for d in dicts]
