"""Declarative scenario specifications for the experiment engine.

Every run the repository performs — CLI commands, figure benchmarks,
ablations, examples — is described by a :class:`ScenarioSpec`: a frozen,
validated, JSON-round-trippable value object.  The runner
(:mod:`repro.experiments.runner`) turns a spec into the concrete
grid → decomposition → partition → cluster → solver stack; nothing else
in the repository hand-assembles that stack anymore.

Design rules:

* specs are **data**: frozen dataclasses of plain ints/floats/strings/
  tuples, so they hash, compare, pickle, and cross process boundaries
  for the parallel sweep runner;
* every spec validates eagerly in ``__post_init__`` (``ValueError`` with
  a actionable message) so a bad sweep point fails at construction, not
  three layers deep inside the solver;
* ``to_dict``/``from_dict`` come from :class:`repro.codec.Codec`,
  derived from the dataclass fields, so
  ``Spec.from_dict(spec.to_dict()) == spec`` holds by construction —
  the contract the sweep runner and the JSON result files rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple, Union

import numpy as np

from ..codec import Codec

# the fault layer is pure data (frozen dataclasses, no heavy deps), so
# reusing its event type keeps one schema for churn schedules instead of
# a spec-side mirror — the same kind of names-only exception to the
# spec→library layering as the backend/strategy name validation
from ..amt.faults import DEFAULT_RECOVERY_PENALTY, ChurnEvent, FaultSchedule

__all__ = ["MeshSpec", "ClusterSpec", "DriftSpec", "FaultSpec",
           "InterferenceSpec", "MemoryLevelSpec", "MemorySpec",
           "PartitionSpec", "PolicySpec", "ScenarioSpec",
           "TopologySpec", "ChurnEvent"]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _set(obj: Any, name: str, value: Any) -> None:
    """Assign a normalized field on a frozen dataclass."""
    object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class MeshSpec(Codec):
    """Discretization geometry: DP mesh, SD coarsening, horizon ratio.

    ``ny``/``sd_ny`` default to their x-counterparts (square meshes are
    the paper's standard configuration).  ``eps_factor`` is the horizon
    in units of the mesh spacing (``eps = eps_factor * h``, the paper
    uses 8).
    """

    nx: int
    ny: Optional[int] = None
    sd_nx: int = 1
    sd_ny: Optional[int] = None
    eps_factor: float = 8.0

    def __post_init__(self) -> None:
        _set(self, "nx", int(self.nx))
        _set(self, "ny", int(self.nx if self.ny is None else self.ny))
        _set(self, "sd_nx", int(self.sd_nx))
        _set(self, "sd_ny", int(self.sd_nx if self.sd_ny is None
                                else self.sd_ny))
        _set(self, "eps_factor", float(self.eps_factor))
        _require(self.nx >= 1 and self.ny >= 1,
                 f"mesh must be at least 1x1, got {self.nx}x{self.ny}")
        _require(self.sd_nx >= 1 and self.sd_ny >= 1,
                 f"SD grid must be at least 1x1, got {self.sd_nx}x{self.sd_ny}")
        _require(self.nx % self.sd_nx == 0 and self.ny % self.sd_ny == 0,
                 f"SDs must tile the mesh evenly: {self.nx}x{self.ny} DPs "
                 f"over {self.sd_nx}x{self.sd_ny} SDs")
        _require(self.eps_factor > 0,
                 f"eps_factor must be positive, got {self.eps_factor}")

    @property
    def num_subdomains(self) -> int:
        return self.sd_nx * self.sd_ny

    def build_sd_grid(self):
        """The :class:`SubdomainGrid` this mesh spec describes."""
        from ..mesh.subdomain import SubdomainGrid
        return SubdomainGrid(self.nx, self.ny, self.sd_nx, self.sd_ny)


@dataclass(frozen=True)
class InterferenceSpec(Codec):
    """A competing job on ``node`` during ``[start, stop)`` of virtual
    time, scaling its rate by ``slowdown`` (paper Sec. 4, challenge 4)."""

    node: int
    start: float
    stop: float
    slowdown: float = 0.5

    def __post_init__(self) -> None:
        _set(self, "node", int(self.node))
        _set(self, "start", float(self.start))
        _set(self, "stop", float(self.stop))
        _set(self, "slowdown", float(self.slowdown))
        _require(self.node >= 0, f"node must be >= 0, got {self.node}")
        _require(self.start < self.stop,
                 f"need start < stop, got [{self.start}, {self.stop})")
        _require(0 < self.slowdown <= 1,
                 f"slowdown must be in (0, 1], got {self.slowdown}")


@dataclass(frozen=True)
class DriftSpec(Codec):
    """Linear per-node capacity drift over a virtual-time window.

    Node ``i`` ramps from its base rate (``ClusterSpec.speed_rates[i]``,
    or the solver default) to ``rates_end[i]`` over ``[start, stop]``
    and holds ``rates_end[i]`` afterwards — the ``hetero_drift``
    workload: the load distribution shifts *mid-run*, so one-shot
    balancing decisions age badly and adaptive strategies win.
    """

    rates_end: Tuple[float, ...] = ()
    start: float = 0.0
    stop: float = 1.0

    def __post_init__(self) -> None:
        _set(self, "rates_end", tuple(float(r) for r in self.rates_end))
        _set(self, "start", float(self.start))
        _set(self, "stop", float(self.stop))
        _require(len(self.rates_end) >= 1,
                 "drift needs at least one end rate")
        _require(all(r > 0 for r in self.rates_end),
                 "drift end rates must all be positive")
        _require(0 <= self.start < self.stop,
                 f"need 0 <= start < stop, got [{self.start}, {self.stop}]")


@dataclass(frozen=True)
class FaultSpec(Codec):
    """A declarative churn schedule (elastic cluster, DESIGN.md
    substitution 4): node failures, joins, and transient straggle
    windows at fixed virtual times, plus the recovery penalty charged
    to tasks requeued off a failed node.

    Validation against the cluster size happens in
    :meth:`ClusterSpec.__post_init__` (which builds the runtime
    :class:`repro.amt.faults.FaultSchedule` eagerly), so an impossible
    schedule — failing an unknown node, leaving the cluster empty,
    non-sequential join ids — fails at spec construction, not
    mid-sweep.
    """

    events: Tuple[ChurnEvent, ...] = ()
    recovery_penalty: float = DEFAULT_RECOVERY_PENALTY

    def __post_init__(self) -> None:
        _set(self, "events", tuple(self.events))
        _set(self, "recovery_penalty", float(self.recovery_penalty))
        _require(self.recovery_penalty >= 0,
                 f"recovery_penalty must be >= 0, "
                 f"got {self.recovery_penalty}")

    def build(self, num_nodes: int) -> FaultSchedule:
        """The validated runtime schedule for an ``num_nodes`` cluster."""
        return FaultSchedule(num_nodes, self.events, self.recovery_penalty)


@dataclass(frozen=True)
class TopologySpec(Codec):
    """Declarative network topology (DESIGN.md substitution 5).

    ``kind`` selects the model from :mod:`repro.amt.topology`:

    ``flat``
        The default single-tier model: one latency + bandwidth egress
        link per node (:class:`repro.amt.topology.FlatTopology`).
    ``switched``
        Two-level racks (``rack = node // rack_size``) with
        oversubscribed uplinks: inter-rack messages additionally
        traverse the source rack's uplink and the destination rack's
        downlink, FIFO links of bandwidth ``bandwidth * rack_size /
        oversubscription``.
    ``hierarchical``
        Intra-node / intra-rack / inter-rack tiers with per-tier
        latency and bandwidth, explicit ``racks`` assignment,
        ``join_rack`` for elastic joiners, and ``wan_racks`` reached
        over a far-slower WAN tier.

    ``latency``/``bandwidth`` of ``None`` inherit the enclosing
    :class:`ClusterSpec`'s values (falling back to the flat network's
    defaults), so ``ClusterSpec(latency=..., bandwidth=...,
    topology=TopologySpec(kind="switched"))`` keeps one source of truth
    for the NIC tier.
    """

    KINDS = ("flat", "switched", "hierarchical")

    kind: str = "flat"
    rack_size: int = 4
    latency: Optional[float] = None
    bandwidth: Optional[float] = None
    oversubscription: Optional[float] = None
    uplink_latency: Optional[float] = None
    uplink_bandwidth: Optional[float] = None
    rack_latency: Optional[float] = None
    rack_bandwidth: Optional[float] = None
    wan_latency: Optional[float] = None
    wan_bandwidth: Optional[float] = None
    wan_racks: Tuple[int, ...] = ()
    racks: Optional[Tuple[int, ...]] = None
    join_rack: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.kind in self.KINDS,
                 f"unknown topology kind {self.kind!r}; "
                 f"expected one of {self.KINDS}")
        _set(self, "rack_size", int(self.rack_size))
        _require(self.rack_size >= 1,
                 f"rack_size must be >= 1, got {self.rack_size}")
        for name in ("latency", "uplink_latency", "rack_latency",
                     "wan_latency"):
            if getattr(self, name) is not None:
                _set(self, name, float(getattr(self, name)))
                value = getattr(self, name)
                _require(value >= 0, f"{name} must be >= 0, got {value}")
        for name in ("bandwidth", "uplink_bandwidth", "rack_bandwidth",
                     "wan_bandwidth"):
            if getattr(self, name) is not None:
                _set(self, name, float(getattr(self, name)))
                value = getattr(self, name)
                _require(value > 0, f"{name} must be > 0, got {value}")
        if self.oversubscription is not None:
            _set(self, "oversubscription", float(self.oversubscription))
            _require(self.oversubscription > 0,
                     f"oversubscription must be > 0, "
                     f"got {self.oversubscription}")
        _set(self, "wan_racks", tuple(int(r) for r in self.wan_racks))
        _require(all(r >= 0 for r in self.wan_racks),
                 "wan_racks entries must be >= 0")
        if self.racks is not None:
            _set(self, "racks", tuple(int(r) for r in self.racks))
            _require(all(r >= 0 for r in self.racks),
                     "racks entries must be >= 0")
        if self.join_rack is not None:
            _set(self, "join_rack", int(self.join_rack))
            _require(self.join_rack >= 0,
                     f"join_rack must be >= 0, got {self.join_rack}")
            _require(self.racks is not None,
                     "join_rack requires an explicit racks assignment "
                     "for the initial nodes (otherwise every node would "
                     "land in the join rack)")
        if self.kind != "hierarchical":
            for name in ("rack_latency", "rack_bandwidth", "wan_latency",
                         "wan_bandwidth"):
                _require(getattr(self, name) is None,
                         f"{name} is only valid for kind 'hierarchical'")
            _require(not self.wan_racks and self.racks is None
                     and self.join_rack is None,
                     "wan_racks/racks/join_rack are only valid for "
                     "kind 'hierarchical'")
        _require(self.oversubscription is None or self.kind == "switched",
                 "oversubscription is only valid for kind 'switched' "
                 "(hierarchical pins uplink/rack bandwidths directly)")
        _require(self.oversubscription is None
                 or self.uplink_bandwidth is None,
                 "oversubscription and uplink_bandwidth both size the "
                 "uplink — set one or the other")
        if self.kind == "flat":
            for name in ("uplink_latency", "uplink_bandwidth"):
                _require(getattr(self, name) is None,
                         f"{name} is not valid for kind 'flat'")

    def build(self, num_nodes: int, default_latency: Optional[float] = None,
              default_bandwidth: Optional[float] = None):
        """The runtime :class:`repro.amt.topology.Topology`.

        ``default_latency``/``default_bandwidth`` are the enclosing
        cluster spec's NIC-tier values, used when this spec leaves its
        own unset.
        """
        from ..amt.topology import (DEFAULT_BANDWIDTH, DEFAULT_LATENCY,
                                    FlatTopology, HierarchicalTopology,
                                    SwitchedTopology)
        latency = next(v for v in (self.latency, default_latency,
                                   DEFAULT_LATENCY) if v is not None)
        bandwidth = next(v for v in (self.bandwidth, default_bandwidth,
                                     DEFAULT_BANDWIDTH) if v is not None)
        if self.racks is not None and len(self.racks) != num_nodes:
            # exact length: a longer tuple would silently override
            # join_rack for elastic joiners (sequential ids land inside
            # the list), a shorter one leaves initial nodes unplaced
            raise ValueError(
                f"topology pins {len(self.racks)} rack ids for "
                f"{num_nodes} initial nodes")
        if self.kind == "flat":
            return FlatTopology(latency=latency, bandwidth=bandwidth)
        if self.kind == "switched":
            kwargs = {}
            if self.oversubscription is not None:
                kwargs["oversubscription"] = self.oversubscription
            return SwitchedTopology(
                rack_size=self.rack_size, latency=latency,
                bandwidth=bandwidth,
                uplink_latency=self.uplink_latency,
                uplink_bandwidth=self.uplink_bandwidth, **kwargs)
        kwargs = {}
        if self.wan_latency is not None:
            kwargs["wan_latency"] = self.wan_latency
        if self.wan_bandwidth is not None:
            kwargs["wan_bandwidth"] = self.wan_bandwidth
        return HierarchicalTopology(
            rack_size=self.rack_size, racks=self.racks,
            join_rack=self.join_rack, latency=latency, bandwidth=bandwidth,
            rack_latency=(self.uplink_latency if self.rack_latency is None
                          else self.rack_latency),
            rack_bandwidth=(self.uplink_bandwidth
                            if self.rack_bandwidth is None
                            else self.rack_bandwidth),
            wan_racks=self.wan_racks, **kwargs)


@dataclass(frozen=True)
class MemoryLevelSpec(Codec):
    """One cache level of a node's memory hierarchy (see
    :class:`repro.costmodel.MemoryLevel`): byte capacity, streaming
    bandwidth, and per-access latency."""

    name: str
    capacity: float
    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        _require(isinstance(self.name, str) and bool(self.name),
                 "memory level name must be a non-empty string")
        _set(self, "capacity", float(self.capacity))
        _set(self, "bandwidth", float(self.bandwidth))
        _set(self, "latency", float(self.latency))
        _require(self.capacity > 0,
                 f"capacity must be > 0, got {self.capacity}")
        _require(self.bandwidth > 0,
                 f"bandwidth must be > 0, got {self.bandwidth}")
        _require(self.latency >= 0,
                 f"latency must be >= 0, got {self.latency}")


#: The defaults mirror :data:`repro.costmodel.DEFAULT_HIERARCHY`.
_DEFAULT_MEMORY_LEVELS = (
    MemoryLevelSpec("L1", 32 * 1024, 4e11, 1e-9),
    MemoryLevelSpec("L2", 256 * 1024, 2e11, 4e-9),
    MemoryLevelSpec("L3", 8 * 1024 * 1024, 1e11, 1.2e-8),
)


@dataclass(frozen=True)
class MemorySpec(Codec):
    """A node memory hierarchy for shape-aware cost models.

    Declares the cache ladder the ``hierarchy`` cost model prices
    tasks against (capacities ordered smallest to largest, with DRAM
    as the fallthrough tier).  The defaults mirror
    :data:`repro.costmodel.DEFAULT_HIERARCHY` — 32 KiB L1, 256 KiB L2,
    8 MiB L3 — so ``MemorySpec()`` is the contemporary-looking node the
    ablations use.  Flat cost models ignore it entirely.
    """

    levels: Tuple[MemoryLevelSpec, ...] = _DEFAULT_MEMORY_LEVELS
    dram_bandwidth: float = 2e10
    dram_latency: float = 8e-8

    def __post_init__(self) -> None:
        _set(self, "levels", tuple(self.levels))
        _set(self, "dram_bandwidth", float(self.dram_bandwidth))
        _set(self, "dram_latency", float(self.dram_latency))
        # eager validation: level ordering and DRAM parameters fail at
        # spec construction, not when the cost model first prices a task
        self.build()

    def build(self):
        """The runtime :class:`repro.costmodel.MemoryHierarchy`."""
        from ..costmodel import MemoryHierarchy, MemoryLevel
        return MemoryHierarchy(
            levels=tuple(MemoryLevel(lv.name, lv.capacity, lv.bandwidth,
                                     lv.latency) for lv in self.levels),
            dram_bandwidth=self.dram_bandwidth,
            dram_latency=self.dram_latency)


@dataclass(frozen=True)
class ClusterSpec(Codec):
    """Simulated cluster shape: nodes, cores, speeds, network, overheads.

    ``speed_rates`` are per-node constant rates in work units per virtual
    second (``None`` → the solver default of 1 GF/s per core);
    ``interference`` entries overlay time-varying slowdowns on top, and
    ``drift`` ramps every node linearly to new rates over a window
    (mutually exclusive with ``interference`` — both rewrite the trace).
    ``latency``/``bandwidth`` of ``None`` use the :class:`repro.amt
    .topology.FlatTopology` defaults.  ``faults`` overlays a deterministic
    churn schedule (failures/joins/straggles — see :class:`FaultSpec`);
    straggle windows compose onto whatever speed trace the other fields
    produce, so faults combine freely with static heterogeneity, drift,
    and interference.  ``topology`` replaces the flat network with a
    rack-aware model (see :class:`TopologySpec`); ``None`` keeps the
    flat network, and ``latency``/``bandwidth`` then feed the
    topology's NIC tier when it leaves its own unset.  ``memory``
    declares the per-node cache ladder shape-aware cost models price
    tasks against (see :class:`MemorySpec`); ``None`` leaves the
    hierarchy model on :data:`repro.costmodel.DEFAULT_HIERARCHY` and
    is invisible to the flat model.
    """

    num_nodes: int = 1
    cores_per_node: int = 1
    speed_rates: Optional[Tuple[float, ...]] = None
    interference: Tuple[InterferenceSpec, ...] = ()
    drift: Optional[DriftSpec] = None
    latency: Optional[float] = None
    bandwidth: Optional[float] = None
    spawn_overhead: float = 0.0
    faults: Optional[FaultSpec] = None
    topology: Optional[TopologySpec] = None
    memory: Optional[MemorySpec] = None

    def __post_init__(self) -> None:
        _set(self, "num_nodes", int(self.num_nodes))
        _set(self, "cores_per_node", int(self.cores_per_node))
        _require(self.num_nodes >= 1,
                 f"num_nodes must be >= 1, got {self.num_nodes}")
        _require(self.cores_per_node >= 1,
                 f"cores_per_node must be >= 1, got {self.cores_per_node}")
        if self.speed_rates is not None:
            _set(self, "speed_rates",
                 tuple(float(r) for r in self.speed_rates))
            _require(len(self.speed_rates) == self.num_nodes,
                     f"speed_rates has {len(self.speed_rates)} entries "
                     f"for {self.num_nodes} nodes")
            _require(all(r > 0 for r in self.speed_rates),
                     "speed_rates must all be positive")
        _set(self, "interference", tuple(self.interference))
        _require(all(i.node < self.num_nodes for i in self.interference),
                 "interference entries must target existing nodes")
        if self.drift is not None:
            _require(len(self.drift.rates_end) == self.num_nodes,
                     f"drift has {len(self.drift.rates_end)} end rates "
                     f"for {self.num_nodes} nodes")
            _require(not self.interference,
                     "drift and interference cannot be combined "
                     "(both rewrite the per-node speed traces)")
        if self.latency is not None:
            _set(self, "latency", float(self.latency))
            _require(self.latency >= 0,
                     f"latency must be >= 0, got {self.latency}")
        if self.bandwidth is not None:
            _set(self, "bandwidth", float(self.bandwidth))
            _require(self.bandwidth > 0,
                     f"bandwidth must be > 0, got {self.bandwidth}")
        _set(self, "spawn_overhead", float(self.spawn_overhead))
        _require(self.spawn_overhead >= 0,
                 f"spawn_overhead must be >= 0, got {self.spawn_overhead}")
        if self.faults is not None:
            # eager membership validation: a bad schedule fails here
            self.faults.build(self.num_nodes)
        if self.topology is not None:
            # eager validation: a rack list shorter than the cluster
            # (or any bad link parameter) fails here, not mid-sweep
            self.topology.build(self.num_nodes, self.latency,
                                self.bandwidth)

    # -- builders (data -> runtime objects) -------------------------------
    def build_faults(self):
        """The runtime :class:`FaultSchedule`, or ``None``."""
        if self.faults is None:
            return None
        return self.faults.build(self.num_nodes)

    def build_speeds(self, default_rate: float = 1e9):
        """Per-node :class:`SpeedTrace` list, or ``None`` for defaults."""
        from ..models.workload import drift_ramp, step_interference
        from ..amt.cluster import ConstantSpeed
        if (self.speed_rates is None and not self.interference
                and self.drift is None):
            return None
        rates = (self.speed_rates if self.speed_rates is not None
                 else (default_rate,) * self.num_nodes)
        if self.drift is not None:
            return drift_ramp(rates, self.drift.rates_end,
                              self.drift.start, self.drift.stop)
        traces = [ConstantSpeed(r) for r in rates]
        for i in self.interference:
            traces[i.node] = step_interference(
                rates[i.node], i.start, i.stop, slowdown=i.slowdown)
        return traces

    def build_network(self):
        """A fresh network model (egress/link state must not leak).

        The :class:`repro.amt.topology.Topology` this spec's
        :class:`TopologySpec` describes (flat when none is declared),
        with the cluster's ``latency``/``bandwidth`` as the NIC-tier
        defaults.
        """
        topology = (self.topology if self.topology is not None
                    else TopologySpec())
        return topology.build(self.num_nodes, self.latency, self.bandwidth)

    def build_memory(self):
        """The runtime :class:`repro.costmodel.MemoryHierarchy`, or
        ``None`` when no hierarchy is declared (shape-aware cost models
        then use their own default)."""
        if self.memory is None:
            return None
        return self.memory.build()


@dataclass(frozen=True)
class PartitionSpec(Codec):
    """How the initial SD → node assignment is produced.

    Methods
    -------
    ``metis``
        The from-scratch multilevel partitioner (the paper's METIS
        substitute), seeded by ``seed``.
    ``blocks`` / ``strips`` / ``rcb`` / ``spectral``
        The geometric and spectral baselines (``axis`` selects strip
        orientation: 0 = vertical strips, 1 = horizontal).
    ``single``
        Everything on node 0 — the shared-memory configuration.
    ``corner_imbalanced``
        Node 0 owns all SDs except one corner SD per other node — the
        paper's Fig. 14 starting distribution.
    ``explicit``
        The literal ``parts`` tuple.

    ``placement`` post-processes the part → node assignment against the
    cluster's network topology (see :mod:`repro.partition.placement`):
    ``"none"`` keeps the partitioner's own labels, ``"rack"`` permutes
    part labels so strongly-adjacent parts land on nodes in the same
    rack (ghost traffic stays off the oversubscribed uplinks), and
    ``"scatter"`` deals parts round-robin across racks — the
    adversarial baseline the topology ablation measures against.  On a
    single-rack (flat) topology every placement is the identity.
    """

    METHODS = ("metis", "blocks", "strips", "rcb", "spectral", "single",
               "corner_imbalanced", "explicit")
    PLACEMENTS = ("none", "rack", "scatter")

    method: str = "metis"
    seed: int = 0
    axis: int = 0
    parts: Optional[Tuple[int, ...]] = None
    placement: str = "none"

    def __post_init__(self) -> None:
        _require(self.method in self.METHODS,
                 f"unknown partition method {self.method!r}; "
                 f"expected one of {self.METHODS}")
        _require(self.placement in self.PLACEMENTS,
                 f"unknown placement {self.placement!r}; "
                 f"expected one of {self.PLACEMENTS}")
        _set(self, "seed", int(self.seed))
        _require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        _set(self, "axis", int(self.axis))
        _require(self.axis in (0, 1), f"axis must be 0 or 1, got {self.axis}")
        if self.method == "explicit":
            _require(self.parts is not None,
                     "method 'explicit' requires a parts tuple")
            _set(self, "parts", tuple(int(p) for p in self.parts))
            _require(all(p >= 0 for p in self.parts),
                     "explicit parts must be non-negative node ids")
        else:
            _require(self.parts is None,
                     f"parts is only valid with method 'explicit', "
                     f"not {self.method!r}")

    def build(self, sd_nx: int, sd_ny: int, num_nodes: int) -> np.ndarray:
        """The initial ownership array for an ``sd_nx x sd_ny`` SD grid."""
        n = sd_nx * sd_ny
        if self.method == "single":
            return np.zeros(n, dtype=np.int64)
        if self.method == "corner_imbalanced":
            # the paper's Fig. 14 left grid: node 0 owns almost
            # everything; each other node starts on one distinct corner
            # SD (top-right, bottom-left, bottom-right — node 0 holds
            # the top-left corner with the bulk)
            if num_nodes > n:
                raise ValueError(
                    f"{num_nodes} nodes need >= {num_nodes} SDs (have {n})")
            parts = np.zeros(n, dtype=np.int64)
            corners = []
            for sd in (sd_nx - 1, (sd_ny - 1) * sd_nx, n - 1):
                # 1-wide grids collapse corners onto each other (and
                # onto node 0's top-left corner): keep each SD once
                if sd != 0 and sd not in corners:
                    corners.append(sd)
            candidates = corners + [sd for sd in range(n - 1, 0, -1)
                                    if sd not in corners]
            for i in range(1, num_nodes):
                parts[candidates[i - 1]] = i
            return parts
        if self.method == "explicit":
            if len(self.parts) != n:
                raise ValueError(
                    f"explicit parts has {len(self.parts)} entries "
                    f"for {n} SDs")
            return np.asarray(self.parts, dtype=np.int64)
        if self.method == "metis":
            from ..partition.kway import partition_sd_grid
            return partition_sd_grid(sd_nx, sd_ny, num_nodes, seed=self.seed)
        if self.method == "blocks":
            from ..partition.geometric import block_partition
            return block_partition(sd_nx, sd_ny, num_nodes)
        if self.method == "strips":
            from ..partition.geometric import strip_partition
            return strip_partition(sd_nx, sd_ny, num_nodes, axis=self.axis)
        from ..partition.graph import grid_dual_graph
        graph = grid_dual_graph(sd_nx, sd_ny)
        if self.method == "rcb":
            from ..partition.geometric import recursive_coordinate_bisection
            return recursive_coordinate_bisection(graph, num_nodes)
        from ..partition.spectral import spectral_partition
        return spectral_partition(graph, num_nodes)


@dataclass(frozen=True)
class PolicySpec(Codec):
    """When (and with which strategy) the balancer runs after a timestep.

    ``balancer`` names the balancing strategy (``"auto"``, ``"tree"``,
    ``"diffusion"``, ``"greedy"``, ``"repartition"`` — see
    :mod:`repro.core.strategies`).  ``"auto"`` is the paper's
    Algorithm 1; validation is eager, like ``kernel_backend``, so an
    unknown name fails at spec construction rather than mid-sweep.
    """

    KINDS = ("never", "interval", "threshold")

    kind: str = "never"
    interval: int = 1
    ratio: float = 1.1
    min_interval: int = 1
    balancer: str = "auto"

    def __post_init__(self) -> None:
        _require(self.kind in self.KINDS,
                 f"unknown policy kind {self.kind!r}; "
                 f"expected one of {self.KINDS}")
        _set(self, "interval", int(self.interval))
        _set(self, "ratio", float(self.ratio))
        _set(self, "min_interval", int(self.min_interval))
        _require(self.interval >= 1,
                 f"interval must be >= 1, got {self.interval}")
        _require(self.ratio >= 1.0,
                 f"ratio must be >= 1.0, got {self.ratio}")
        _require(self.min_interval >= 1,
                 f"min_interval must be >= 1, got {self.min_interval}")
        from ..core.strategies import strategy_names
        _require(self.balancer == "auto"
                 or self.balancer in strategy_names(),
                 f"unknown balancing strategy {self.balancer!r}; "
                 f"expected 'auto' or one of {tuple(strategy_names())}")

    def build(self):
        """The :class:`BalancePolicy`, or ``None`` when balancing is off."""
        from ..core.policy import IntervalPolicy, ThresholdPolicy
        if self.kind == "interval":
            return IntervalPolicy(self.interval)
        if self.kind == "threshold":
            return ThresholdPolicy(ratio=self.ratio,
                                   min_interval=self.min_interval)
        return None


@dataclass(frozen=True)
class ScenarioSpec(Codec):
    """One complete, runnable experiment point.

    ``solver`` selects the serial reference integrator or the simulated
    distributed solver.  ``cracks`` is a tuple of polylines (each a tuple
    of ``(x, y)`` points in the unit square) inducing per-SD work factors
    via :func:`repro.models.crack.crack_work_factors`.

    ``kernel_backend`` names the kernel backend executing the operator
    applies (``"auto"``, ``"direct"``, ``"fft"``, ``"sparse"`` — see
    :mod:`repro.solver.backends`).  ``"auto"`` resolves by the radius
    heuristic; under the default flat cost model the backend changes
    numerics execution speed only, never the simulated schedule.

    ``cost_model`` names the task-cost model pricing simulated task
    times (``"auto"``, ``"flat"``, ``"hierarchy"`` — see
    :mod:`repro.costmodel`).  ``"auto"`` is ``flat``, the seed
    arithmetic; ``hierarchy`` makes block shape and kernel backend
    matter to the schedule via the cluster's ``memory`` hierarchy.

    ``work_factors`` pins explicit per-SD work multipliers (one per
    SD, non-negative) instead of deriving them from ``cracks`` — the
    two are mutually exclusive; both validate eagerly at construction.

    The balancing-strategy choice lives on the policy
    (``spec.policy.balancer``, surfaced here as the read-only
    :attr:`balancer` property): ``"auto"`` is the paper's Algorithm 1.
    """

    name: str
    mesh: MeshSpec
    cluster: ClusterSpec = ClusterSpec()
    partition: PartitionSpec = PartitionSpec()
    policy: PolicySpec = PolicySpec()
    num_steps: int = 20
    solver: str = "distributed"
    compute_numerics: bool = False
    overlap: bool = True
    source_mode: str = "continuum"
    dt: Optional[float] = None
    track_error: bool = False
    cracks: Tuple[Tuple[Tuple[float, float], ...], ...] = ()
    crack_floor: float = 0.25
    crack_horizon_factor: float = 2.0
    kernel_backend: str = "auto"
    cost_model: str = "auto"
    work_factors: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        _require(isinstance(self.name, str) and bool(self.name),
                 "scenario name must be a non-empty string")
        _require(self.solver in ("serial", "distributed"),
                 f"solver must be 'serial' or 'distributed', "
                 f"got {self.solver!r}")
        _set(self, "num_steps", int(self.num_steps))
        _require(self.num_steps >= 0,
                 f"num_steps must be >= 0, got {self.num_steps}")
        _require(self.source_mode in ("continuum", "discrete"),
                 f"unknown source mode {self.source_mode!r}")
        if self.dt is not None:
            _set(self, "dt", float(self.dt))
            _require(self.dt > 0, f"dt must be positive, got {self.dt}")
        if self.solver == "serial":
            _set(self, "compute_numerics", True)
        elif self.track_error:
            _require(self.compute_numerics,
                     "track_error requires compute_numerics on the "
                     "distributed solver")
        if self.solver == "distributed":
            _require(self.cluster.num_nodes <= self.mesh.num_subdomains,
                     f"{self.cluster.num_nodes} nodes need >= "
                     f"{self.cluster.num_nodes} SDs "
                     f"(have {self.mesh.num_subdomains})")
        cracks = tuple(
            tuple((float(x), float(y)) for x, y in polyline)
            for polyline in self.cracks)
        _set(self, "cracks", cracks)
        _require(all(len(p) >= 2 for p in cracks),
                 "every crack polyline needs at least two points")
        _set(self, "crack_floor", float(self.crack_floor))
        _set(self, "crack_horizon_factor", float(self.crack_horizon_factor))
        _require(0 < self.crack_floor <= 1,
                 f"crack_floor must be in (0, 1], got {self.crack_floor}")
        _require(self.crack_horizon_factor > 0,
                 "crack_horizon_factor must be positive, "
                 f"got {self.crack_horizon_factor}")
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
        if self.work_factors is not None:
            _require(not self.cracks,
                     "work_factors and cracks are mutually exclusive "
                     "(both define the per-SD work multipliers)")
            _set(self, "work_factors",
                 tuple(float(w) for w in self.work_factors))
            _require(len(self.work_factors) == self.mesh.num_subdomains,
                     f"work_factors has {len(self.work_factors)} entries "
                     f"for {self.mesh.num_subdomains} SDs")
            _require(all(w >= 0 for w in self.work_factors),
                     "work_factors must all be non-negative")

    @property
    def balancer(self) -> str:
        """The policy's balancing-strategy name (``spec.policy.balancer``)."""
        return self.policy.balancer

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    def with_balancer(self, balancer: str) -> "ScenarioSpec":
        """A copy whose policy pins the named balancing strategy."""
        return self.replace(policy=replace(self.policy, balancer=balancer))

    def with_topology(self, topology: Union[str, TopologySpec,
                                            None]) -> "ScenarioSpec":
        """A copy whose cluster uses the given network topology.

        ``topology`` may be a :class:`TopologySpec`, a kind name
        (``"flat"``, ``"switched"``, ``"hierarchical"`` — built with
        default rack parameters), or ``None`` to restore the flat
        network.
        """
        if isinstance(topology, str):
            topology = TopologySpec(kind=topology)
        return self.replace(cluster=replace(self.cluster,
                                            topology=topology))
