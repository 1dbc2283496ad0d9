"""Named scenario factories: every workload is reachable by name.

The registry maps a scenario name (``fig09_strong_shared``,
``crack_hetero``, …) to a factory that builds the matching
:class:`ScenarioSpec`.  Factories take keyword overrides so the same
name serves as a sweep axis (``build("fig11_strong_distributed",
nodes=2)``), a CLI target (``python -m repro run --scenario NAME``), and
a tiny smoke configuration (``build(NAME, steps=1)``) — every factory
accepts ``steps``.

The defaults reproduce the paper's captions (Sec. 8): eps = 8h, 20
timesteps, square SD layouts, 1 GF/s cores, HPX-like task spawn
overheads on the shared-memory runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .spec import (ChurnEvent, ClusterSpec, DriftSpec, FaultSpec,
                   InterferenceSpec, MemorySpec, MeshSpec, PartitionSpec,
                   PolicySpec, ScenarioSpec, TopologySpec)

__all__ = ["register", "build", "scenario_names", "get_factory",
           "balancer_sweep",
           "EPS_FACTOR", "NUM_STEPS", "CORE_SPEED", "SPAWN_OVERHEAD"]

#: The paper's horizon ratio (all scaling figures): eps = 8 h.
EPS_FACTOR = 8.0
#: The paper's timestep count for scaling figures.
NUM_STEPS = 20
#: Simulated per-core speed (flops / virtual second).
CORE_SPEED = 1e9
#: Serial per-task scheduling cost (HPX task overheads are ~1 us; we
#: include ghost-buffer packing in the same knob).
SPAWN_OVERHEAD = 5e-6

_REGISTRY: Dict[str, Callable[..., ScenarioSpec]] = {}


def register(name: str):
    """Decorator: add a spec factory to the registry under ``name``."""
    def deco(fn: Callable[..., ScenarioSpec]):
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[name] = fn
        return fn
    return deco


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def get_factory(name: str) -> Callable[..., ScenarioSpec]:
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}")
    return _REGISTRY[name]


def build(name: str, **overrides) -> ScenarioSpec:
    """Build the named scenario, passing ``overrides`` to its factory."""
    return get_factory(name)(**overrides)


# ---------------------------------------------------------------------------
# figure scenarios (paper Sec. 8)
# ---------------------------------------------------------------------------

@register("fig08_convergence")
def fig08_convergence(exponent: int = 4, steps: int = 10,
                      eps_factor: float = 2.0) -> ScenarioSpec:
    """One point of the Fig. 8 convergence study: serial manufactured
    solve on a ``2^exponent`` mesh with dt ~ h^2."""
    nx = 2 ** exponent
    return ScenarioSpec(
        name="fig08_convergence",
        mesh=MeshSpec(nx=nx, eps_factor=eps_factor),
        partition=PartitionSpec(method="single"),
        solver="serial", num_steps=steps, dt=0.05 / (nx * nx),
        track_error=True, compute_numerics=True,
        source_mode="continuum")


@register("fig09_strong_shared")
def fig09_strong_shared(mesh: int = 400, sd_axis: int = 8, cpus: int = 4,
                        steps: int = NUM_STEPS) -> ScenarioSpec:
    """Shared-memory strong scaling (Fig. 9): one simulated node with
    ``cpus`` cores, one task per SD per timestep, no ghost messages."""
    return ScenarioSpec(
        name="fig09_strong_shared",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=1, cores_per_node=cpus,
                            spawn_overhead=SPAWN_OVERHEAD),
        partition=PartitionSpec(method="single"),
        num_steps=steps)


@register("fig10_weak_shared")
def fig10_weak_shared(sd_size: int = 50, sd_axis: int = 4, cpus: int = 4,
                      steps: int = NUM_STEPS) -> ScenarioSpec:
    """Shared-memory weak scaling (Fig. 10): SD size fixed, mesh grows."""
    return ScenarioSpec(
        name="fig10_weak_shared",
        mesh=MeshSpec(nx=sd_size * sd_axis, sd_nx=sd_axis,
                      eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=1, cores_per_node=cpus,
                            spawn_overhead=SPAWN_OVERHEAD),
        partition=PartitionSpec(method="single"),
        num_steps=steps)


def _distributed_partition(partitioner: str, seed: int) -> PartitionSpec:
    if partitioner == "blocks":
        return PartitionSpec(method="blocks")
    if partitioner == "metis":
        return PartitionSpec(method="metis", seed=seed)
    raise ValueError(f"unknown partitioner {partitioner!r}")


@register("fig11_strong_distributed")
def fig11_strong_distributed(mesh: int = 400, sd_axis: int = 8,
                             nodes: int = 4, partitioner: str = "blocks",
                             steps: int = NUM_STEPS,
                             seed: int = 0) -> ScenarioSpec:
    """Distributed strong scaling (Fig. 11): single-core nodes, ghost
    messages, the paper's manual block layouts by default."""
    return ScenarioSpec(
        name="fig11_strong_distributed",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=nodes, cores_per_node=1,
                            spawn_overhead=SPAWN_OVERHEAD),
        partition=_distributed_partition(partitioner, seed),
        num_steps=steps)


@register("fig12_weak_distributed")
def fig12_weak_distributed(sd_size: int = 50, sd_axis: int = 4,
                           nodes: int = 4, partitioner: str = "metis",
                           steps: int = NUM_STEPS,
                           seed: int = 0) -> ScenarioSpec:
    """Distributed weak scaling with METIS-style layouts (Fig. 12)."""
    return ScenarioSpec(
        name="fig12_weak_distributed",
        mesh=MeshSpec(nx=sd_size * sd_axis, sd_nx=sd_axis,
                      eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=nodes, cores_per_node=1,
                            spawn_overhead=SPAWN_OVERHEAD),
        partition=_distributed_partition(partitioner, seed),
        num_steps=steps)


@register("fig13_metis_scaling")
def fig13_metis_scaling(mesh: int = 800, sd_axis: int = 16, nodes: int = 16,
                        steps: int = NUM_STEPS, seed: int = 0) -> ScenarioSpec:
    """Distributed scaling 1..16 nodes, METIS distribution (Fig. 13)."""
    return ScenarioSpec(
        name="fig13_metis_scaling",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=nodes, cores_per_node=1,
                            spawn_overhead=SPAWN_OVERHEAD),
        partition=PartitionSpec(method="metis", seed=seed),
        num_steps=steps)


@register("fig14_load_balance")
def fig14_load_balance(sd_axis: int = 5, nodes: int = 4,
                       steps: int = 3) -> ScenarioSpec:
    """The Fig. 14 balancing validation: 5x5 SDs on 4 symmetric nodes
    from the paper's highly imbalanced corner distribution, Algorithm 1
    running after every simulated sweep."""
    return ScenarioSpec(
        name="fig14_load_balance",
        mesh=MeshSpec(nx=4 * sd_axis, sd_nx=sd_axis, eps_factor=2.0),
        cluster=ClusterSpec(num_nodes=nodes),
        partition=PartitionSpec(method="corner_imbalanced"),
        policy=PolicySpec(kind="interval", interval=1),
        num_steps=steps)


# ---------------------------------------------------------------------------
# ablation scenarios
# ---------------------------------------------------------------------------

@register("abl_overlap")
def abl_overlap(latency: float = 1e-3, bandwidth: float = 1e6,
                overlap: bool = True, steps: int = 5) -> ScenarioSpec:
    """Ablation B: Case-1/Case-2 communication hiding on/off across
    network tiers (defaults to the slow tier)."""
    return ScenarioSpec(
        name="abl_overlap",
        mesh=MeshSpec(nx=400, sd_nx=2, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=4, latency=latency,
                            bandwidth=bandwidth),
        partition=PartitionSpec(method="blocks"),
        num_steps=steps, overlap=overlap)


@register("abl_partitioners")
def abl_partitioners(method: str = "metis", steps: int = 5,
                     seed: int = 0) -> ScenarioSpec:
    """Ablation A: partitioner choice under a communication-dominated
    network, where the edge cut drives the makespan."""
    return ScenarioSpec(
        name="abl_partitioners",
        mesh=MeshSpec(nx=800, sd_nx=16, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=8, latency=2e-5, bandwidth=1e6),
        partition=PartitionSpec(method=method, seed=seed),
        num_steps=steps)


@register("abl_balancing_gain")
def abl_balancing_gain(source: str = "hetero", balanced: bool = True,
                       steps: int = 15, seed: int = 0) -> ScenarioSpec:
    """Ablation D: balancing gain under static heterogeneity and/or a
    crack network lightening part of the domain.

    Crack sources use SD-row strips so the cracked rows concentrate in
    specific nodes (a count-balanced METIS layout hides crack work
    imbalance below the balancer's one-SD trigger threshold — the
    balancer then correctly declines to move anything and the ablation
    measures nothing).
    """
    if source not in ("hetero", "crack", "both"):
        raise ValueError(f"unknown imbalance source {source!r}")
    speeds = None
    if source in ("hetero", "both"):
        speeds = (0.5e9, 1e9, 1.5e9, 2e9)
    cracks = ()
    if source in ("crack", "both"):
        cracks = (((0.05, 0.18), (0.95, 0.18)),
                  ((0.05, 0.3), (0.95, 0.3)),
                  ((0.05, 0.42), (0.95, 0.42)))
    partition = (PartitionSpec(method="strips", axis=1) if cracks
                 else PartitionSpec(method="metis", seed=seed))
    return ScenarioSpec(
        name="abl_balancing_gain",
        mesh=MeshSpec(nx=256, sd_nx=8, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=4, speed_rates=speeds),
        partition=partition,
        policy=(PolicySpec(kind="interval", interval=1) if balanced
                else PolicySpec()),
        num_steps=steps, cracks=cracks)


@register("abl_backends")
def abl_backends(backend: str = "auto", mesh: int = 256, sd_axis: int = 8,
                 nodes: int = 4, steps: int = 3, seed: int = 0) -> ScenarioSpec:
    """Ablation E: kernel backend choice on the numerics-on hot path.

    A numerics-on distributed run at the paper's horizon (eps = 8h, so
    17x17 masks) whose wall-clock cost is dominated by the per-SD
    operator applies; sweep ``backend`` over
    ``repro.solver.backend_names()`` (plus ``auto``) to compare apply
    throughput.  The virtual makespan is backend-independent by design
    — only real execution time changes.
    """
    return ScenarioSpec(
        name="abl_backends",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=nodes),
        partition=PartitionSpec(method="metis", seed=seed),
        num_steps=steps, compute_numerics=True,
        kernel_backend=backend)


@register("abl_balancers")
def abl_balancers(balancer: str = "auto", mesh: int = 128, sd_axis: int = 8,
                  nodes: int = 4, steps: int = 12,
                  seed: int = 0) -> ScenarioSpec:
    """Ablation F: balancing-strategy choice under drifting node speeds.

    The ``hetero_drift`` workload with the balancer running every step;
    sweep ``balancer`` over ``repro.core.strategy_names()`` (see
    :func:`balancer_sweep`) to compare the paper's Algorithm 1 against
    diffusion, greedy settlement, and scratch-remap repartitioning on
    makespan *and* migration cost (``balance_events`` telemetry).
    """
    return hetero_drift(mesh=mesh, sd_axis=sd_axis, nodes=nodes,
                        steps=steps, seed=seed, balancer=balancer,
                        balanced=True).replace(name="abl_balancers")


def balancer_sweep(**overrides) -> List[ScenarioSpec]:
    """One ``abl_balancers`` spec per registered balancing strategy.

    This is the sweep ``repro run --scenario abl_balancers`` executes
    when no ``--balancer`` is pinned; ``overrides`` are forwarded to
    the factory (``steps``, ``nodes``, ``seed``, ...).
    """
    from ..core.strategies import strategy_names
    return [build("abl_balancers", balancer=name, **overrides)
            for name in strategy_names()]


# ---------------------------------------------------------------------------
# application scenarios (examples / CLI workloads)
# ---------------------------------------------------------------------------

@register("crack_hetero")
def crack_hetero(mesh: int = 128, sd_axis: int = 8, nodes: int = 4,
                 steps: int = NUM_STEPS, balanced: bool = True) -> ScenarioSpec:
    """Crack-induced work heterogeneity (Sec. 7 motivation): a crack
    network through the lower-middle of the domain, SD rows assigned to
    equal-speed nodes, Algorithm 1 on busy-time counters."""
    cracks = (((0.05, 0.4375), (0.95, 0.4375)),
              ((0.05, 0.5625), (0.95, 0.5625)),
              ((0.3, 0.35), (0.7, 0.65)))
    return ScenarioSpec(
        name="crack_hetero",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=nodes),
        partition=PartitionSpec(method="strips", axis=1),
        policy=(PolicySpec(kind="interval", interval=1) if balanced
                else PolicySpec()),
        num_steps=steps, cracks=cracks)


@register("hetero_interference")
def hetero_interference(mesh: int = 128, sd_axis: int = 8, nodes: int = 4,
                        steps: int = NUM_STEPS, seed: int = 0,
                        balanced: bool = True) -> ScenarioSpec:
    """Time-varying capacity (Sec. 4 challenge 4): node 0 suffers a
    competing job for a mid-run window; the threshold policy notices the
    busy-time spread and redistributes."""
    # place the interference window in steps 5..12 of the run
    step_time_guess = _step_guess(mesh, sd_axis, nodes)
    window = (5 * step_time_guess, 12 * step_time_guess)
    return ScenarioSpec(
        name="hetero_interference",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(
            num_nodes=nodes,
            interference=(InterferenceSpec(node=0, start=window[0],
                                           stop=window[1], slowdown=0.4),)),
        partition=PartitionSpec(method="metis", seed=seed),
        policy=(PolicySpec(kind="threshold", ratio=1.15) if balanced
                else PolicySpec()),
        num_steps=steps)


@register("hetero_drift")
def hetero_drift(mesh: int = 128, sd_axis: int = 8, nodes: int = 4,
                 steps: int = 16, seed: int = 0, balancer: str = "auto",
                 balanced: bool = True) -> ScenarioSpec:
    """Drifting node capacity: the workload where one-shot balancing loses.

    Node speeds start spread over ``0.4x .. 1.6x`` the base core speed
    and ramp *linearly to the reversed assignment* over the middle of
    the run (fast nodes become slow and vice versa), so any fixed SD
    distribution — the initial partition, or a single early balancing
    decision — is wrong for most of the run.  Adaptive per-step
    balancing tracks the drift; ``balanced=False`` is the
    ``NeverBalance`` baseline the drift ablation beats by >= 10%.
    """
    if nodes == 1:
        start_rates = (CORE_SPEED,)
    else:
        lo, hi = 0.4 * CORE_SPEED, 1.6 * CORE_SPEED
        start_rates = tuple(hi - (hi - lo) * i / (nodes - 1)
                            for i in range(nodes))
    # drift across the heart of the run
    step_guess = _step_guess(mesh, sd_axis, nodes)
    drift = DriftSpec(rates_end=start_rates[::-1],
                      start=2 * step_guess, stop=12 * step_guess)
    return ScenarioSpec(
        name="hetero_drift",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=nodes, speed_rates=start_rates,
                            drift=drift),
        partition=PartitionSpec(method="metis", seed=seed),
        policy=(PolicySpec(kind="interval", interval=1, balancer=balancer)
                if balanced else PolicySpec(balancer=balancer)),
        num_steps=steps)


def _step_guess(mesh: int, sd_axis: int, nodes: int,
                flops_per_dp: float = 400.0) -> float:
    """Rough virtual seconds per timestep: (#SDs x DPs/SD x flops/DP)
    / (base rate x nodes).  Used to place churn/drift/interference
    events relative to the run, not to predict exact makespans."""
    dps_per_sd = (mesh // sd_axis) ** 2
    return (sd_axis * sd_axis) * dps_per_sd * flops_per_dp / CORE_SPEED / nodes


@register("hetero_churn")
def hetero_churn(mesh: int = 128, sd_axis: int = 8, nodes: int = 4,
                 steps: int = 16, seed: int = 0, balancer: str = "auto",
                 balanced: bool = True) -> ScenarioSpec:
    """Elastic cluster churn (DESIGN.md substitution 4): membership
    changes mid-run.

    Node 1 straggles through the early steps, node 0 *fails* near the
    middle of the run (its SDs are evacuated and its in-flight tasks
    requeued with the recovery penalty), and a faster replacement joins
    for the tail.  Adaptive balancing re-spreads load after each
    change; ``balanced=False`` is the baseline that pays for every SD
    stranded on the wrong survivor — the churn ablation's comparison.
    """
    sg = _step_guess(mesh, sd_axis, nodes)
    faults = FaultSpec(events=(
        ChurnEvent("straggle", 1.5 * sg, node=1, stop=4.5 * sg, factor=0.5),
        ChurnEvent("fail", 5.5 * sg, node=0),
        ChurnEvent("join", 9.5 * sg, node=nodes, cores=1,
                    rate=1.25 * CORE_SPEED),
    ))
    return ScenarioSpec(
        name="hetero_churn",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=nodes, faults=faults),
        partition=PartitionSpec(method="metis", seed=seed),
        policy=(PolicySpec(kind="interval", interval=1, balancer=balancer)
                if balanced else PolicySpec(balancer=balancer)),
        num_steps=steps)


@register("fault_recovery")
def fault_recovery(nx: int = 32, sd_axis: int = 4, nodes: int = 3,
                   steps: int = 6, balancer: str = "tree") -> ScenarioSpec:
    """The small numerics-on recovery validation (golden fixture).

    One node fails mid-run on a 3-node cluster integrating the
    manufactured problem; the run must recover — requeued kernels,
    evacuated SDs, recovery-tagged balance events — with final
    temperatures still bit-near the serial solver.  Everything is
    pinned (``tree`` strategy, ``direct`` backend, ``flat`` cost
    model, block partition) so the committed
    ``tests/golden/fault_recovery.json`` record stays put if a default
    ever changes, and is identical across machines.
    """
    # eps = 2h -> radius 2, ~13 stencil neighbors, ~26 flops per DP.
    # 3.8 guessed steps lands mid-step-2 while node 1 has kernels in
    # flight, so the fixture pins the requeue path, not just evacuation
    sg = _step_guess(nx, sd_axis, nodes, flops_per_dp=26.0)
    faults = FaultSpec(events=(
        ChurnEvent("fail", 3.8 * sg, node=1),))
    return ScenarioSpec(
        name="fault_recovery",
        mesh=MeshSpec(nx=nx, sd_nx=sd_axis, eps_factor=2.0),
        cluster=ClusterSpec(num_nodes=nodes, faults=faults),
        partition=PartitionSpec(method="blocks"),
        policy=PolicySpec(kind="interval", interval=1, balancer=balancer),
        num_steps=steps, compute_numerics=True, track_error=True,
        kernel_backend="direct", cost_model="flat")


@register("straggler_tail")
def straggler_tail(mesh: int = 128, sd_axis: int = 8, nodes: int = 4,
                   steps: int = 12, seed: int = 0,
                   balanced: bool = True) -> ScenarioSpec:
    """Transient stragglers (tail latency): two nodes take turns running
    far below their nominal rate for a few-step window while membership
    stays fixed.  The threshold policy notices the busy-time spread and
    shifts SDs away from the straggler — then back once the window
    passes; ``balanced=False`` rides the tail at full price.
    """
    sg = _step_guess(mesh, sd_axis, nodes)
    faults = FaultSpec(events=(
        ChurnEvent("straggle", 2.0 * sg, node=0, stop=5.0 * sg, factor=0.35),
        ChurnEvent("straggle", 7.0 * sg, node=2, stop=10.0 * sg, factor=0.4),
    ))
    return ScenarioSpec(
        name="straggler_tail",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=nodes, faults=faults),
        partition=PartitionSpec(method="metis", seed=seed),
        policy=(PolicySpec(kind="threshold", ratio=1.15) if balanced
                else PolicySpec()),
        num_steps=steps)


# ---------------------------------------------------------------------------
# topology scenarios (DESIGN.md substitution 5)
# ---------------------------------------------------------------------------

@register("rack_locality")
def rack_locality(mesh: int = 256, sd_axis: int = 8, nodes: int = 8,
                  steps: int = 5, seed: int = 0,
                  placement: str = "rack") -> ScenarioSpec:
    """Rack locality on a switched two-rack cluster.

    Eight nodes in two racks of four behind moderately oversubscribed
    uplinks, on a communication-dominated network (the Abl. A tier).
    ``placement`` selects how the METIS-style parts land on nodes:
    ``rack`` packs adjacent parts into the same rack so ghost traffic
    stays off the uplinks, ``scatter`` deals them round-robin across
    racks (the placement-oblivious baseline), ``none`` keeps the
    partitioner's labels.
    """
    return ScenarioSpec(
        name="rack_locality",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(
            num_nodes=nodes, latency=2e-5, bandwidth=1e6,
            topology=TopologySpec(kind="switched", rack_size=4,
                                  oversubscription=8.0)),
        partition=PartitionSpec(method="metis", seed=seed,
                                placement=placement),
        num_steps=steps)


@register("oversubscribed_uplink")
def oversubscribed_uplink(mesh: int = 256, sd_axis: int = 8, nodes: int = 8,
                          steps: int = 5, seed: int = 0,
                          placement: str = "rack",
                          oversubscription: float = 16.0) -> ScenarioSpec:
    """Heavily oversubscribed uplinks: the placement ablation workload.

    Same two-rack layout as ``rack_locality`` but the uplinks carry
    only ``rack_size / oversubscription`` NICs' worth of bandwidth, so
    every inter-rack ghost byte queues behind the whole rack's egress
    traffic.  Rack-aware placement keeps the heavy part boundaries
    intra-rack and beats scattered placement on makespan — the
    acceptance criterion ``benchmarks/bench_abl_topology.py`` records
    in ``BENCH_topology.json``.
    """
    return ScenarioSpec(
        name="oversubscribed_uplink",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(
            num_nodes=nodes, latency=2e-5, bandwidth=1e6,
            topology=TopologySpec(kind="switched", rack_size=4,
                                  oversubscription=oversubscription)),
        partition=PartitionSpec(method="metis", seed=seed,
                                placement=placement),
        num_steps=steps)


@register("abl_costmodel")
def abl_costmodel(mesh: int = 256, sd_axis: int = 8, nodes: int = 8,
                  steps: int = 3, seed: int = 0, backend: str = "direct",
                  placement: str = "rack",
                  cost_model: str = "hierarchy") -> ScenarioSpec:
    """Cost-model co-optimization: granularity x backend x placement.

    One cell of the ``bench_costmodel`` configuration sweep: a
    two-rack switched cluster on a compute-weighted network tier (fast
    enough that task cost, not wire time, is first-order — placement
    still matters through the oversubscribed uplinks), an explicit
    per-node :class:`MemorySpec` cache ladder, and a pinned kernel
    backend.  Under the ``flat`` cost model the backend axis is
    degenerate — every backend prices a DP update at the same
    neighbor-count flops, so makespans tie across backends and the
    optimal ``(sd_axis, backend, placement)`` cell is decided by
    communication alone.  Under ``hierarchy`` the per-(backend, block
    shape) reuse-distance profiles break the tie: cache pressure moves
    the optimum to a different granularity *and* backend, which
    ``benchmarks/bench_costmodel.py`` demonstrates and
    ``BENCH_costmodel.json`` records.
    """
    return ScenarioSpec(
        name="abl_costmodel",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(
            num_nodes=nodes, latency=5e-6, bandwidth=1e8,
            topology=TopologySpec(kind="switched", rack_size=4,
                                  oversubscription=8.0),
            memory=MemorySpec()),
        partition=PartitionSpec(method="metis", seed=seed,
                                placement=placement),
        num_steps=steps,
        kernel_backend=backend,
        cost_model=cost_model)


@register("wan_joiner")
def wan_joiner(mesh: int = 128, sd_axis: int = 8, nodes: int = 4,
               steps: int = 16, seed: int = 0, balancer: str = "auto",
               balanced: bool = True) -> ScenarioSpec:
    """An elastic joiner provisioned across a WAN (churn x topology).

    The PR-4 churn machinery composed with the hierarchical topology:
    a two-rack cluster loses node 3 mid-run, and the replacement joins
    from a *WAN rack* — every byte it exchanges (absorption migrations,
    ghosts on its part boundaries) pays WAN latency and bandwidth.
    Adaptive balancing must weigh the joiner's compute against its
    placement; ``balanced=False`` leaves the joiner idle entirely.
    """
    if nodes < 2:
        raise ValueError("wan_joiner needs >= 2 nodes (one fails mid-run)")
    sg = _step_guess(mesh, sd_axis, nodes)
    faults = FaultSpec(events=(
        ChurnEvent("fail", 5.5 * sg, node=nodes - 1),
        ChurnEvent("join", 7.5 * sg, node=nodes, cores=1,
                   rate=1.5 * CORE_SPEED),
    ))
    # pairs of nodes per rack; the joiner lands in a fresh WAN rack
    racks = tuple(i // 2 for i in range(nodes))
    wan_rack = racks[-1] + 1
    return ScenarioSpec(
        name="wan_joiner",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(
            num_nodes=nodes, faults=faults,
            topology=TopologySpec(
                kind="hierarchical", rack_size=2, racks=racks,
                join_rack=wan_rack, wan_racks=(wan_rack,),
                wan_latency=2e-4, wan_bandwidth=1.25e7)),
        partition=PartitionSpec(method="metis", seed=seed),
        policy=(PolicySpec(kind="interval", interval=1, balancer=balancer)
                if balanced else PolicySpec(balancer=balancer)),
        num_steps=steps)


@register("quickstart")
def quickstart(nx: int = 64, sd_axis: int = 4, nodes: int = 4,
               steps: int = NUM_STEPS, seed: int = 0) -> ScenarioSpec:
    """The numerics-on quickstart: real temperatures on the simulated
    cluster, validated per-step against the manufactured solution."""
    return ScenarioSpec(
        name="quickstart",
        mesh=MeshSpec(nx=nx, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=nodes),
        partition=PartitionSpec(method="metis", seed=seed),
        num_steps=steps, compute_numerics=True, track_error=True)


@register("solve_serial")
def solve_serial(nx: int = 64, eps_factor: float = EPS_FACTOR,
                 steps: int = NUM_STEPS,
                 source_mode: str = "continuum") -> ScenarioSpec:
    """One serial manufactured-problem solve with error report (the
    CLI ``solve`` command)."""
    return ScenarioSpec(
        name="solve_serial",
        mesh=MeshSpec(nx=nx, eps_factor=eps_factor),
        solver="serial", num_steps=steps, track_error=True,
        compute_numerics=True, source_mode=source_mode)


@register("scale_extreme")
def scale_extreme(mesh: int = 2048, sd_axis: int = 64, nodes: int = 512,
                  steps: int = 3) -> ScenarioSpec:
    """DES-throughput stress tier: the event-rate benchmark workload.

    2048x2048 DPs over 64x64 = 4096 SDs on 512 single-core nodes with
    block layout, numerics off and no spawn overhead — millions of
    ghost-delivery and task-completion events per run, all schedule.
    This is the configuration ``benchmarks/bench_des_core.py`` measures
    events/sec on (per-event loop vs wave batching); scale
    it down for smoke tests with ``mesh=512, sd_axis=16, nodes=32``.
    """
    return ScenarioSpec(
        name="scale_extreme",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=nodes, cores_per_node=1),
        partition=PartitionSpec(method="blocks"),
        num_steps=steps)


@register("scale_strong")
def scale_strong(mesh: int = 400, sd_axis: int = 8, nodes: int = 8,
                 steps: int = NUM_STEPS, seed: int = 0) -> ScenarioSpec:
    """One point of the CLI ``scale`` sweep: METIS-style layout on the
    default homogeneous cluster."""
    return ScenarioSpec(
        name="scale_strong",
        mesh=MeshSpec(nx=mesh, sd_nx=sd_axis, eps_factor=EPS_FACTOR),
        cluster=ClusterSpec(num_nodes=nodes),
        partition=PartitionSpec(method="metis", seed=seed),
        num_steps=steps)


# ---------------------------------------------------------------------------
# service scenarios (multi-tenant open-loop serving)
# ---------------------------------------------------------------------------
#
# Capacity yardstick for the default fleet (4 nodes x 1e9 flops/s, the
# default tenant mix below): one job costs ~5.3e-5 node-seconds of
# compute, so the cluster saturates around ~7.5e4 jobs/s.  The poisson
# and bursty scenarios offer ~25% of that; ``service_overload`` offers
# ~2x capacity so goodput must flatten at the service rate while shed
# load absorbs the rest — the saturation curve BENCH_service.json pins.

def _default_tenants():
    from ..service import TenantSpec
    # alpha and beta share the 32x32/eps-2h cached operator; gamma's
    # 48x48 mesh forces a second assembly — one of each reuse case
    return (TenantSpec(name="alpha", weight=1.0, nx=32, steps=2),
            TenantSpec(name="beta", weight=1.0, nx=32, steps=2),
            TenantSpec(name="gamma", weight=2.0, nx=48, steps=2))


@register("service_poisson")
def service_poisson(rate: float = 20000.0, horizon: float = 5e-3,
                    nodes: int = 4, seed: int = 0, depth: int = 16,
                    concurrent: int = 8):
    """Steady multi-tenant load: Poisson arrivals at ~25% of capacity.

    The baseline serving scenario — no shedding expected, queue waits
    dominated by the round-robin dispatch granularity."""
    from ..service import ArrivalSpec, ServiceSpec
    return ServiceSpec(
        name="service_poisson",
        tenants=_default_tenants(),
        cluster=ClusterSpec(num_nodes=nodes),
        arrival=ArrivalSpec(process="poisson", rate=rate, seed=seed),
        horizon=horizon, max_queue_depth=depth, max_concurrent=concurrent)


@register("service_bursty")
def service_bursty(rate: float = 20000.0, horizon: float = 5e-3,
                   nodes: int = 4, seed: int = 0, depth: int = 16,
                   concurrent: int = 8, burst_on: float = 5e-4,
                   burst_off: float = 1.5e-3):
    """On/off bursts at the same average load as ``service_poisson``:
    within a burst the instantaneous rate is 4x, so queues (and p99
    waits) grow during bursts and drain in the gaps."""
    from ..service import ArrivalSpec, ServiceSpec
    return ServiceSpec(
        name="service_bursty",
        tenants=_default_tenants(),
        cluster=ClusterSpec(num_nodes=nodes),
        arrival=ArrivalSpec(process="bursty", rate=rate, seed=seed,
                            burst_on=burst_on, burst_off=burst_off),
        horizon=horizon, max_queue_depth=depth, max_concurrent=concurrent)


@register("service_overload")
def service_overload(rate: float = 150000.0, horizon: float = 2e-3,
                     nodes: int = 4, seed: int = 0, depth: int = 8,
                     concurrent: int = 8):
    """Offered load ~2x capacity: admission control must shed the
    excess so goodput saturates below the offered rate while the p99
    queue wait of *admitted* jobs stays bounded by the finite queues
    (depth x service time, not horizon) — the overload acceptance
    criterion."""
    from ..service import ArrivalSpec, ServiceSpec
    return ServiceSpec(
        name="service_overload",
        tenants=_default_tenants(),
        cluster=ClusterSpec(num_nodes=nodes),
        arrival=ArrivalSpec(process="poisson", rate=rate, seed=seed),
        horizon=horizon, max_queue_depth=depth, max_concurrent=concurrent)


@register("flash_crowd")
def flash_crowd(rate: float = 40000.0, horizon: float = 1.2e-2,
                seed: int = 0, min_nodes: int = 2, max_nodes: int = 8,
                depth: int = 16, concurrent: int = 8,
                burst_on: float = 4e-3, burst_off: float = 8e-3):
    """One flash crowd against a closed-loop autoscaled fleet.

    A single on/off burst (one ``burst_on + burst_off`` cycle fills
    the horizon) offers ~3x the *minimum* fleet's capacity while it
    lasts: a static ``min_nodes`` fleet sheds heavily and queues to
    the depth limit, a static ``max_nodes`` fleet coasts at a fraction
    of utilization, and the autoscaler rides the frontier between them
    — grow through the burst on sustained utilization/shed pressure,
    drain back to the floor once the backlog clears.  This is the
    scenario ``benchmarks/bench_autoscale.py`` runs three ways to pin
    the node-hours-vs-p99 frontier (BENCH_autoscale.json).
    """
    from ..service import ArrivalSpec, AutoscaleSpec, ServiceSpec
    return ServiceSpec(
        name="flash_crowd",
        tenants=_default_tenants(),
        cluster=ClusterSpec(num_nodes=min_nodes),
        arrival=ArrivalSpec(process="bursty", rate=rate, seed=seed,
                            burst_on=burst_on, burst_off=burst_off),
        horizon=horizon, max_queue_depth=depth, max_concurrent=concurrent,
        autoscale=AutoscaleSpec(
            min_nodes=min_nodes, max_nodes=max_nodes,
            poll_interval=2e-4, cooldown=4e-4, provision_delay=4e-4,
            warmup=4e-4, warmup_factor=0.5,
            scale_out_utilization=0.85, scale_in_utilization=0.3,
            max_shed_rate=0.0,  # any shedding is scale-out pressure
            breach_polls=2, low_polls=4))


@register("diurnal_autoscale")
def diurnal_autoscale(rate: float = 40000.0, horizon: float = 2e-2,
                      seed: int = 0, min_nodes: int = 2,
                      max_nodes: int = 6, depth: int = 16,
                      concurrent: int = 8, amplitude: float = 0.8):
    """A full diurnal cycle tracked by the autoscaler.

    Sinusoidally modulated arrivals (one period = the horizon) swing
    the offered load from ~0.2x to ~1.8x the average; the policy
    should grow the fleet through the peak and drain it through the
    trough, so provisioned node-seconds track the load curve instead
    of the peak — the paper-style elasticity argument, closed-loop.
    """
    from ..service import ArrivalSpec, AutoscaleSpec, ServiceSpec
    return ServiceSpec(
        name="diurnal_autoscale",
        tenants=_default_tenants(),
        cluster=ClusterSpec(num_nodes=min_nodes),
        arrival=ArrivalSpec(process="diurnal", rate=rate, seed=seed,
                            period=horizon, amplitude=amplitude),
        horizon=horizon, max_queue_depth=depth, max_concurrent=concurrent,
        autoscale=AutoscaleSpec(
            min_nodes=min_nodes, max_nodes=max_nodes,
            poll_interval=2.5e-4, cooldown=5e-4, provision_delay=5e-4,
            warmup=5e-4, warmup_factor=0.5,
            scale_out_utilization=0.85, scale_in_utilization=0.3,
            max_shed_rate=0.0,
            breach_polls=2, low_polls=4))


@register("service_extreme")
def service_extreme(rate: float = 2e7, horizon: float = 5e-2,
                    nodes: int = 64, tenants: int = 64, seed: int = 0,
                    depth: int = 4, concurrent: int = 16):
    """Service-throughput stress tier: the arrival-pump benchmark
    workload (the service-path analogue of ``scale_extreme``).

    64 tenants offer ~10^6 jobs over the horizon onto a 64-node fleet
    that can complete only a tiny fraction — deep overload, so almost
    every arrival is consumed by admission control (queue full → shed)
    while the admitted jobs keep all 64 nodes busy with interleaved
    step-DAGs.  Numerics-free: the per-job flops come from the two
    shared cached operators (every 8th tenant runs a 96x96 mesh, the
    rest 64x64), no temperatures move.  This is the configuration
    ``benchmarks/bench_service.py`` measures wall-clock DES throughput
    on; scale it down for smoke tests by shrinking ``horizon``.
    """
    from ..service import ArrivalSpec, ServiceSpec, TenantSpec
    mix = tuple(
        TenantSpec(name=f"t{i:02d}",
                   weight=2.0 if i % 4 == 0 else 1.0,
                   nx=96 if i % 8 == 0 else 64,
                   steps=2)
        for i in range(tenants))
    return ServiceSpec(
        name="service_extreme",
        tenants=mix,
        cluster=ClusterSpec(num_nodes=nodes),
        arrival=ArrivalSpec(process="poisson", rate=rate, seed=seed),
        horizon=horizon, max_queue_depth=depth, max_concurrent=concurrent)
