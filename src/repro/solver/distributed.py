"""Distributed solver on the simulated cluster (paper Secs. 6 & 8.3).

Each timestep reproduces the schedule of the paper's Fig. 4:

1. **ghost exchange** — for every SD whose halo crosses a node boundary,
   a message (latency + bytes/bandwidth, egress-serialized) is sent from
   the owner of the data to the owner of the SD;
2. **Case-2 computation** — every SD immediately runs a task for its DPs
   that do not depend on foreign data;
3. **Case-1 computation** — a second task per SD, dependent on that SD's
   incoming ghost messages, covers the remaining DPs (communication is
   hidden behind the Case-2 work);
4. **step barrier** — when all SD tasks of the step have completed, the
   balancing policy is consulted; if it fires, Algorithm 1 redistributes
   SDs, migration messages are charged, counters are reset, and the next
   step starts once migrations have arrived.

Numerics are real; *time* is virtual (see DESIGN.md substitution 1).
The SD tasks carry only their cost-model work: the temperatures of a
step are computed once, at its barrier, by one operator apply over the
whole zero-rimmed field.  That is exact, not an approximation of the
per-SD updates: explicit Euler reads only the previous field, so every
SD's update is the same arithmetic whenever in virtual time it runs,
and the virtual times come from the cost model, never from the
computation.  The per-SD blocks (halo plus zero padding) equal the
whole-field apply restricted to each SD; ``tests/solver/oracles.py``
keeps that checked.  Set ``compute_numerics=False`` for pure scaling
studies where only the schedule matters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..amt.cluster import (BusyCursor, ConstantSpeed, SimCluster, SimTask,
                           SpeedTrace, StraggleSpeed)
from ..amt.topology import Topology
from ..amt.faults import ChurnEvent, FaultSchedule, RecoveryEvent
from ..amt.future import Future, when_all
from ..core.policy import BalancePolicy, NeverBalance
from ..core.power import imbalance_ratio
from ..core.strategies import (BalanceEvent, BalanceResult, BalanceStrategy,
                               evacuate_assignments, make_strategy)
from ..costmodel import CostModel, FlatCostModel, WorkItem, make_cost_model
from ..mesh.decomposition import BYTES_PER_DP, Decomposition, check_parts
from ..mesh.grid import UniformGrid
from ..mesh.subdomain import SubdomainGrid
from .exact import step_error
from .kernel import NonlocalOperator, check_operator_matches, stable_dt
from .model import NonlocalHeatModel

__all__ = ["DistributedResult", "DistributedSolver"]


class DistributedResult:
    """Everything the paper's evaluation reads off a distributed run."""

    def __init__(self) -> None:
        #: final temperature field (None when numerics were skipped)
        self.u: Optional[np.ndarray] = None
        #: virtual seconds from first task to last barrier
        self.makespan: float = 0.0
        #: virtual duration of each timestep
        self.step_durations: List[float] = []
        #: max/mean busy-time ratio measured at the end of each step
        #: (over the current measurement window — counters reset when
        #: the balancer runs, Algorithm 1 line 35)
        self.imbalance_history: List[float] = []
        #: per-step errors vs the exact solution (eq. 7), if requested
        self.errors: Optional[List[float]] = None
        #: SD ownership after each balancing event (step, parts)
        self.parts_history: List = []
        #: BalanceResult per triggered balancing step
        self.balance_results: List[BalanceResult] = []
        #: one :class:`BalanceEvent` per balancer invocation (including
        #: no-op decisions): step, strategy, SDs moved, migration bytes,
        #: measured/predicted imbalance ratio — the migration-cost
        #: telemetry the paper's evaluation reads per event
        self.balance_events: List[BalanceEvent] = []
        #: one :class:`repro.amt.faults.RecoveryEvent` per handled
        #: churn event (node failure or join), in virtual-time order
        self.recovery_events: List[RecoveryEvent] = []
        #: ghost bytes sent over the run
        self.ghost_bytes: int = 0
        #: bytes per network route class (``remote`` on the flat model;
        #: ``intra_rack`` / ``inter_rack`` / ``wan`` on the topology
        #: models — see :mod:`repro.amt.topology`); classes partition
        #: the traffic, so the values sum to the network's total
        self.bytes_by_class: Dict[str, int] = {}
        #: per-node busy time accumulated over the whole run
        self.busy_total: Optional[np.ndarray] = None

    @property
    def migration_bytes(self) -> int:
        """SD migration bytes charged by balancing (sum over events)."""
        return sum(e.migration_bytes for e in self.balance_events)

    @property
    def sds_moved(self) -> int:
        """Total SDs moved by balancing over the run (sum over events)."""
        return sum(e.sds_moved for e in self.balance_events)

    @property
    def total_error(self) -> Optional[float]:
        """Summed eq.-(7) error (None without an exact reference)."""
        return None if self.errors is None else float(np.sum(self.errors))


class _StepPlan:
    """Step-invariant schedule structure, cached between ownership changes.

    Every timestep with the same SD ownership builds the *same* ghost
    messages and the same per-SD work amounts: they depend only on
    ``(parts, sd_grid, radius)``.  Rebuilding them each step dominates
    the wall time of schedule-only scaling runs, so the solver compiles
    them once into plain tuples and replays those until ownership
    changes (balancing, failure, join) or a new run starts.

    A compile reads the grid's :class:`~repro.mesh.subdomain.HaloTable`
    for the radius, built once per grid: the halo pairs with their byte
    counts, sorted by (consumer, source), and each pair's Case-1 strip.
    Ownership decides only a mask and a gather:
    ``Decomposition.ghost_messages`` keeps the pairs whose SDs sit on
    different nodes (both active, under a domain mask), and
    ``Decomposition.case_split`` returns every SD's Case-1 count, the
    area of the union of its foreign pairs' strips.  Both stay
    ``Decomposition`` methods called once per compile: the end-to-end
    tracer wraps them by name for the ``mesh.plan`` layer and counts
    ``ghost_messages`` calls as compiles.

    The cached work floats are resolved through the solver's cost model
    once at compile time (``flat`` evaluates the seed's ``count * flops
    * work_factor`` left to right), so replayed schedules are
    bit-identical to rebuilt ones.
    """

    __slots__ = ("ghost_runs", "tasks")

    def __init__(self,
                 ghost_runs: List[Tuple[int, List[Tuple[int, int, int]]]],
                 tasks: List[tuple]) -> None:
        #: ``(dst_sd, messages)`` per consumer SD, in SD order:
        #: ``messages`` is that SD's contiguous run of ``(src_node,
        #: dst_node, nbytes)`` ghost messages in
        #: ``Decomposition.ghost_messages`` order, active SDs only (one
        #: ``SimCluster.send_group`` input per consumer)
        self.ghost_runs = ghost_runs
        #: per active SD, in SD order: ``(sd, node, w2, w1)`` with the
        #: overlap split (``None`` marks an empty case), or
        #: ``(sd, node, w_total)`` without overlap
        self.tasks = tasks


class DistributedSolver:
    """SD-distributed forward-Euler integrator with optional balancing.

    Parameters
    ----------
    model, grid, sd_grid:
        Problem definition, discretization, SD geometry.
    parts:
        Initial SD ownership (e.g. from
        :func:`repro.partition.kway.partition_sd_grid`).
    num_nodes:
        Cluster size; ``parts`` entries must lie in ``[0, num_nodes)``.
    cores_per_node, speeds, network:
        Simulated-cluster configuration (see :class:`repro.amt.cluster
        .SimCluster`); ``speeds`` in DP-update-flops per virtual second.
        ``network`` may be any :class:`repro.amt.topology.Topology`
        (flat by default; rack hierarchies, oversubscribed uplinks, WAN
        joiners); ghost,
        migration, and recovery transfers are all routed through it.
        Its link state is reset at the start of every :meth:`run`.
    source, dt:
        As in the serial solver: ``source(t, out)`` writes into a
        grid-shaped scratch array the solver owns.
    work_factors:
        Optional per-SD work multipliers (< 1 inside a crack — see
        :mod:`repro.models.crack`); scales simulated task cost only.
    balancer, policy:
        Load balancing configuration.  ``balancer`` may be a strategy
        *name* (``"tree"``, ``"diffusion"``, ``"greedy"``,
        ``"repartition"``, or ``"auto"`` — the paper's algorithm) or a
        prebuilt :class:`repro.core.strategies.BalanceStrategy`; the
        solver resolves names at construction.  ``None`` disables
        balancing outright (the pre-strategy contract), as does the
        default :class:`NeverBalance` policy.
    overlap:
        ``False`` disables the Case-1/Case-2 split (every SD task waits
        for its ghosts) — the ablation baseline for Sec. 6.3.
    compute_numerics:
        ``False`` skips the NumPy kernels (schedule-only run).
    domain_mask:
        Optional :class:`repro.mesh.domain.DomainMask` for non-square
        domains (the paper's future-work item): inactive SDs run no
        tasks, exchange no ghosts, and their temperature is pinned to
        zero — the ``Dc`` condition extended to internal voids.
    spawn_overhead:
        Serial per-task scheduling cost in virtual seconds: each node's
        i-th task of a step only becomes runnable ``i * spawn_overhead``
        after the step starts.  This is the Amdahl component that makes
        real AMT speedups saturate below the core count (HPX task
        overheads are on the order of a microsecond); 0 disables it.
    operator:
        Optional prebuilt :class:`NonlocalOperator` for this model/grid
        (e.g. from :func:`repro.experiments.runner.cached_operator`);
        sweeps over repeated ``(nx, eps)`` points share the neighborhood
        assembly instead of rebuilding it per run.
    backend:
        Kernel backend name for the operator when none is injected
        (``"auto"`` by default; see :mod:`repro.solver.backends`).
        Backends change only how the real numerics are computed —
        virtual task costs stay neighbor-count-based, so schedules and
        makespans are backend-independent.
    faults:
        Optional :class:`repro.amt.faults.FaultSchedule` (elastic
        cluster, DESIGN.md substitution 4).  Straggle windows are
        composed exactly into the per-node speed traces at
        construction; node failures and joins are injected into the
        event queue at their virtual times.  On a failure the node's
        in-flight and queued tasks are requeued on the SDs' new owners
        at ``(1 + recovery_penalty)`` times their work, gated on the
        SD-state re-fetch message from the checkpoint store on the
        lead (lowest-id) surviving node; the dead node's SDs are
        evacuated through the active balancing strategy (mechanically,
        when balancing is disabled — evacuation is a correctness
        requirement, rebalancing a policy choice).  Joiners are
        absorbed at the end of the step they join in, at the next
        balance step.  The schedule is data, so runs stay bit-identical
        and process-parallel sweeps equal serial execution.
    cost_model:
        Task-cost model name or prebuilt instance (``"auto"`` is
        ``"flat"`` — see :mod:`repro.costmodel`).  ``flat`` reproduces the seed
        arithmetic bit for bit; ``hierarchy`` prices each SD task
        against the node memory hierarchy through offline
        reuse-distance profiles, so block shape and kernel backend
        change virtual task costs (and the balancer's eq-8 work
        weights scale accordingly).
    memory:
        Optional :class:`repro.costmodel.MemoryHierarchy` handed to the
        cost model (hierarchy models default to
        :data:`repro.costmodel.DEFAULT_HIERARCHY` without one).
    """

    def __init__(self, model: NonlocalHeatModel, grid: UniformGrid,
                 sd_grid: SubdomainGrid, parts: Sequence[int],
                 num_nodes: int, cores_per_node: int = 1,
                 speeds: Optional[Sequence[SpeedTrace]] = None,
                 network: Optional[Topology] = None,
                 source: Optional[Callable[..., np.ndarray]] = None,
                 dt: Optional[float] = None,
                 work_factors: Optional[Sequence[float]] = None,
                 balancer: Union[str, BalanceStrategy, None] = "auto",
                 policy: Optional[BalancePolicy] = None,
                 overlap: bool = True,
                 compute_numerics: bool = True,
                 domain_mask=None,
                 spawn_overhead: float = 0.0,
                 operator: Optional[NonlocalOperator] = None,
                 backend: str = "auto",
                 faults: Optional[FaultSchedule] = None,
                 cost_model: Union[str, CostModel] = "auto",
                 memory=None) -> None:
        if (sd_grid.mesh_nx, sd_grid.mesh_ny) != (grid.nx, grid.ny):
            raise ValueError(
                f"SD grid covers {sd_grid.mesh_nx}x{sd_grid.mesh_ny} "
                f"but mesh is {grid.nx}x{grid.ny}")
        self.model = model
        self.grid = grid
        self.sd_grid = sd_grid
        self.parts = check_parts(parts, sd_grid.num_subdomains,
                                 num_nodes).copy()
        self.num_nodes = num_nodes
        if operator is None:
            operator = NonlocalOperator(model, grid, backend=backend)
        else:
            check_operator_matches(operator, model, grid)
        self.operator = operator
        self.source = source
        self.dt = (stable_dt(model, grid, stencil=operator.stencil)
                   if dt is None else float(dt))
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if work_factors is None:
            self.work_factors = np.ones(sd_grid.num_subdomains)
        else:
            self.work_factors = np.asarray(work_factors, dtype=np.float64)
            if len(self.work_factors) != sd_grid.num_subdomains:
                raise ValueError("work_factors must have one entry per SD")
            if np.any(self.work_factors < 0):
                raise ValueError("work_factors must be non-negative")
        if isinstance(balancer, str):
            balancer = make_strategy(balancer, sd_grid)
        #: ``None`` keeps the legacy contract: balancing disabled even
        #: when the policy would fire
        self.balancer = balancer
        self.policy = policy if policy is not None else NeverBalance()
        self.overlap = overlap
        self.compute_numerics = compute_numerics
        #: ~1 Gflop/s per core: puts per-SD task times (microseconds)
        #: on the same scale as the default network's latency and
        #: per-message wire times, the regime the paper operates in
        self._default_rate = 1e9
        if speeds is None:
            speeds = [ConstantSpeed(self._default_rate)
                      for _ in range(num_nodes)]
        if faults is not None:
            if faults.initial_nodes != num_nodes:
                raise ValueError(
                    f"fault schedule was built for {faults.initial_nodes} "
                    f"initial nodes, cluster has {num_nodes}")
            speeds = list(speeds)
            for i in range(num_nodes):
                windows = [(e.time, e.stop, e.factor)
                           for e in faults.straggles_of(i)]
                if windows:
                    speeds[i] = StraggleSpeed(speeds[i], windows)
        self.faults = faults
        if spawn_overhead < 0:
            raise ValueError(f"spawn_overhead must be >= 0, got {spawn_overhead}")
        self.spawn_overhead = float(spawn_overhead)
        if isinstance(cost_model, CostModel):
            self.cost_model = cost_model
        else:
            self.cost_model = make_cost_model(cost_model, memory=memory)
        #: the model the registry actually resolved (sweeps record it)
        self.cost_model_resolved = self.cost_model.name
        self.memory = memory
        self.cluster = SimCluster(num_nodes, cores_per_node=cores_per_node,
                                  speeds=speeds, network=network,
                                  cost_model=self.cost_model, memory=memory)
        #: balancer busy-time polls re-read only nodes whose counters
        #: changed since the last poll
        self._busy_cursor = BusyCursor()
        #: compiled step plan (``None`` until built / after ownership
        #: changes)
        self._plan: Optional[_StepPlan] = None
        self._faults_armed = False
        self._recovery_futs: Dict[int, Future] = {}
        self.domain_mask = domain_mask
        if domain_mask is not None:
            if domain_mask.sd_grid is not sd_grid and (
                    (domain_mask.sd_grid.sd_nx, domain_mask.sd_grid.sd_ny)
                    != (sd_grid.sd_nx, sd_grid.sd_ny)):
                raise ValueError("domain mask built for a different SD grid")
            self._active = domain_mask.active
            self._inactive_dp = ~domain_mask.dp_mask()
        else:
            self._active = None
            self._inactive_dp = None

    # -- public API --------------------------------------------------------
    def run(self, u0: Optional[np.ndarray], num_steps: int,
            exact: Optional[Callable[..., np.ndarray]] = None) -> DistributedResult:
        """Integrate ``num_steps`` steps; returns the run diagnostics.

        ``u0`` may be ``None`` only when ``compute_numerics=False``.
        """
        if num_steps < 0:
            raise ValueError(f"num_steps must be >= 0, got {num_steps}")
        if self.compute_numerics:
            if u0 is None:
                raise ValueError("u0 required when computing numerics")
            u0 = np.asarray(u0, dtype=np.float64)
            if u0.shape != self.grid.shape:
                raise ValueError(
                    f"u0 shape {u0.shape} != grid {self.grid.shape}")
            # both fields are interiors of zero-rimmed padded buffers:
            # the rim is the Dc zero condition, so one apply_block on a
            # buffer updates the whole grid, and the buffers swap
            R = self.operator.radius
            ny, nx = self.grid.shape
            self._pad_old = np.zeros((ny + 2 * R, nx + 2 * R))
            self._pad_new = np.zeros_like(self._pad_old)
            interior = (slice(R, R + ny), slice(R, R + nx))
            self._u_old = self._pad_old[interior]
            self._u_new = self._pad_new[interior]
            self._u_old[...] = u0
            if self._inactive_dp is not None:
                self._u_old[self._inactive_dp] = 0.0
            #: receives the source and the exact field: a step allocates
            #: only the apply's result
            self._scratch = np.empty(self.grid.shape)
        else:
            self._pad_old = self._pad_new = self._scratch = None
            self._u_old = self._u_new = None

        # per-run network state: a reused network (or topology) object
        # must not carry the previous run's egress/link backlog or byte
        # counters into this run's schedule
        self.cluster.network.reset()
        # ownership may have changed since the last run (faults mutate
        # self.parts); never replay a stale plan across runs
        self._plan = None

        result = DistributedResult()
        self._result = result
        self._exact = exact
        if exact is not None:
            if not self.compute_numerics:
                raise ValueError("error tracking requires numerics")
            result.errors = [self._step_error(0.0)]
        self._num_steps = num_steps
        self._flops = self.operator.flops_per_dp()
        self._balance_work = self._effective_work_factors()
        self._step_start_time = 0.0
        self._current_step = 0
        self._done = False
        self._topology_dirty = False
        # per-run policy bookkeeping: policies are stateless, the solver
        # owns the step of the last balancing event (fresh every run, so
        # a reused policy object cannot rate-limit the next run)
        self._last_balance: Optional[int] = None

        # failure-path data movement (live migrations + checkpoint
        # re-fetches) charged mid-step; the next step may not start
        # until it has arrived, exactly like step-boundary migrations
        self._pending_recovery_futs: List[Future] = []
        if self.faults is not None:
            # the handler is bound to this solver; it is dropped when
            # the run returns, so solver and cluster form no cycle
            self.cluster.orphan_handler = self._requeue_orphan

        try:
            if num_steps > 0:
                # armed only when a step runs: a queued event holds the
                # solver, and a run without steps never drains the queue
                self._arm_faults()
                self._start_step(0)
                self.cluster.run()
        finally:
            self.cluster.orphan_handler = None
        self._done = True

        result.makespan = self.cluster.now
        ghost_bytes = (self.cluster.network.bytes_sent
                       - result.migration_bytes
                       - sum(e.recovery_bytes
                             for e in result.recovery_events))
        if ghost_bytes < 0:
            # mis-attributed migration/recovery bytes must fail loudly
            # instead of producing negative telemetry downstream
            raise RuntimeError(
                f"ghost byte accounting went negative ({ghost_bytes}): "
                f"network sent {self.cluster.network.bytes_sent} but "
                f"{result.migration_bytes} migration + "
                f"{sum(e.recovery_bytes for e in result.recovery_events)} "
                f"recovery bytes were attributed")
        result.ghost_bytes = ghost_bytes
        result.bytes_by_class = dict(self.cluster.network.bytes_by_class)
        result.busy_total = np.array(
            [node.counter.total() for node in self.cluster.nodes])
        if self.compute_numerics:
            result.u = self._u_old.copy()
        return result

    def _arm_faults(self) -> None:
        """Schedule the failures and joins, once per solver."""
        if self.faults is None or self._faults_armed:
            return
        # straggles were composed into the speed traces up front;
        # failures and joins are discrete events.  Priority -1: a
        # failure at the exact instant a task would complete kills the
        # task (fault detection wins the tie, deterministically).
        self._faults_armed = True
        for event in self.faults.events:
            if event.kind == "fail":
                self.cluster.sim.schedule(
                    event.time,
                    lambda e=event: self._on_fail(e.node), priority=-1)
            elif event.kind == "join":
                self.cluster.sim.schedule(
                    event.time,
                    lambda e=event: self._on_join(e), priority=-1)

    # -- per-step machinery ----------------------------------------------------
    def _work_item(self, rows: int, cols: int, count: int,
                   wf: float) -> WorkItem:
        """The cost-model input for ``count`` DP updates of a
        ``rows x cols`` SD block."""
        return WorkItem(count=count, flops=self._flops, work_factor=wf,
                        backend=self.operator.backend_name,
                        rows=rows, cols=cols,
                        radius=self.operator.radius)

    def _effective_work_factors(self) -> np.ndarray:
        """Eq-8 per-SD work weights under the active cost model.

        Flat models scale nothing, so the balancer keeps seeing the
        *same array object* as before the cost-model layer existed —
        bit-identical balance decisions by construction.  Shape-aware
        models multiply each SD's work factor by its dimensionless
        slowdown, so power-proportional targets account for cache
        behaviour exactly like the task times do.
        """
        if isinstance(self.cost_model, FlatCostModel):
            return self.work_factors
        scales = [self.cost_model.work_scale(self._work_item(rows, cols,
                                                             1, 1.0))
                  for rows, cols in self.sd_grid.dp_shapes.tolist()]
        return self.work_factors * np.asarray(scales, dtype=np.float64)

    def _poll_busy(self) -> List[float]:
        """Per-node busy time since the last counter reset.

        Re-reads only nodes whose busy counters moved since the previous
        poll (``SimCluster.poll_busy``); the values are bit-identical to
        a full per-node sweep — an untouched counter's cached float *is*
        its value.
        """
        return self.cluster.poll_busy(self._busy_cursor)

    def _build_plan(self) -> _StepPlan:
        """Compile the current ownership into a :class:`_StepPlan`."""
        num_nodes = len(self.cluster.nodes)
        decomp = Decomposition(self.sd_grid, self.parts, num_nodes)
        R = self.operator.radius
        cost = self.cost_model
        work_item = self._work_item

        # ghost messages; with a domain mask, inactive SDs are
        # known-zero (the Dc condition) so no message involving them
        # is needed.  ghost_messages is ordered by destination SD, so
        # each consumer's messages form one contiguous run
        ghost_runs: List[Tuple[int, List[Tuple[int, int, int]]]] = []
        src_node, dst_node, _src_sd, dst_sd, nbytes = decomp.ghost_messages(
            R, self._active)
        for sd, msg in zip(dst_sd, zip(src_node, dst_node, nbytes)):
            if not ghost_runs or ghost_runs[-1][0] != sd:
                ghost_runs.append((sd, []))
            ghost_runs[-1][1].append(msg)

        # per-SD work amounts (inactive SDs run nothing), priced per SD
        # in SD order
        case1 = decomp.case_split(R).tolist()
        active = (None if self._active is None
                  else self._active.tolist())
        tasks: List[tuple] = []
        for sd, (node, (rows, cols), c1, wf) in enumerate(zip(
                decomp.parts.tolist(), self.sd_grid.dp_shapes.tolist(),
                case1, self.work_factors.tolist())):
            if active is not None and not active[sd]:
                continue
            c2 = rows * cols - c1
            if not self.overlap:
                tasks.append((sd, node, cost.task_work(
                    work_item(rows, cols, rows * cols, wf))))
            else:
                w2 = (cost.task_work(work_item(rows, cols, c2, wf))
                      if c2 > 0 else None)
                w1 = (cost.task_work(work_item(rows, cols, c1, wf))
                      if c1 > 0 else None)
                tasks.append((sd, node, w2, w1))
        return _StepPlan(ghost_runs, tasks)

    def _start_step(self, step: int) -> None:
        self._current_step = step
        num_nodes = len(self.cluster.nodes)
        plan = self._plan
        if plan is None:
            plan = self._plan = self._build_plan()

        # 1. ghost messages: one barrier future per consumer SD, whose
        # single delivery event fires at the run's latest arrival
        send_group = self.cluster.send_group
        ghosts_of_sd: Dict[int, List[Future]] = {
            sd: [send_group(run)] for sd, run in plan.ghost_runs}

        # 2./3. per-SD tasks.  With spawn overhead, a node's i-th task
        # of the step only becomes runnable after i * overhead — the
        # serial scheduler component.
        spawn_count = [0] * num_nodes

        def spawn_deps(node: int) -> List[Future]:
            if self.spawn_overhead <= 0:
                return []
            spawn_count[node] += 1
            return [self.cluster.timer(spawn_count[node] * self.spawn_overhead)]

        sd_futures: List[Future] = []
        if not self.overlap:
            for sd, node, w in plan.tasks:
                sd_futures.append(self.cluster.submit(
                    node, work=w,
                    deps=ghosts_of_sd.get(sd, []) + spawn_deps(node),
                    label=f"sd{sd}", tag=sd))
        else:
            for sd, node, w2, w1 in plan.tasks:
                if w2 is not None:
                    sd_futures.append(self.cluster.submit(
                        node, work=w2, deps=spawn_deps(node),
                        label=f"sd{sd}-c2", tag=sd))
                if w1 is not None:
                    sd_futures.append(self.cluster.submit(
                        node, work=w1,
                        deps=ghosts_of_sd.get(sd, []) + spawn_deps(node),
                        label=f"sd{sd}-c1", tag=sd))

        when_all(sd_futures)._add_callback(
            lambda _f, s=step: self._end_step(s))

    def _advance(self, step: int) -> None:
        """``u_new = u_old + dt (L u_old + b(t))`` over the whole grid.

        Computed in place: a step allocates only the apply's result,
        not a full-size temporary per operation.
        """
        rhs = self.operator.apply_block(self._pad_old)
        if self.source is not None:
            rhs += self.source(step * self.dt, out=self._scratch)
        rhs *= self.dt
        np.add(self._u_old, rhs, out=self._u_new)
        if self._inactive_dp is not None:
            self._u_new[self._inactive_dp] = 0.0
        self._pad_old, self._pad_new = self._pad_new, self._pad_old
        self._u_old, self._u_new = self._u_new, self._u_old

    def _step_error(self, t: float) -> float:
        """Eq. (7) at time ``t``, the difference held in the scratch."""
        scratch = self._scratch
        return step_error(self.grid, self._u_old,
                          self._exact(t, out=scratch), out=scratch)

    def _end_step(self, step: int) -> None:
        result = self._result
        now = self.cluster.now
        result.step_durations.append(now - self._step_start_time)
        self._step_start_time = now

        if self.compute_numerics:
            self._advance(step)
            if self._exact is not None:
                result.errors.append(self._step_error((step + 1) * self.dt))

        # this step's recovery transfers gate the next step start just
        # like ordinary migrations (SD data must arrive before the new
        # owner can compute on it)
        migration_futs: List[Future] = list(self._pending_recovery_futs)
        self._pending_recovery_futs = []
        num_nodes = len(self.cluster.nodes)
        busy = self._poll_busy()
        # all indicators are over the live cluster: a dead node's frozen
        # window and a fixed-membership run's full set coincide when no
        # faults are configured
        alive_busy = [busy[n] for n in self.cluster.active_node_ids()]
        result.imbalance_history.append(imbalance_ratio(alive_busy))
        # a membership change since the last balance forces one: joiners
        # are absorbed at the next balance step, which is this one
        forced = (self._topology_dirty and self.balancer is not None
                  and not isinstance(self.policy, NeverBalance))
        if (self.balancer is not None
                and (forced or self.policy.should_balance(
                    step, alive_busy, last_balance=self._last_balance))):
            self._last_balance = step
            self._topology_dirty = False
            active = (None if self.faults is None
                      else np.asarray(self.cluster.alive_mask()))
            bal = self.balancer.balance_step(
                self.parts, num_nodes, busy,
                work_per_sd=self._balance_work, active=active)
            result.balance_results.append(bal)
            event_bytes = 0
            if bal.triggered and bal.sds_moved > 0:
                moved = np.nonzero(bal.parts_before != bal.parts_after)[0]
                for sd in moved:
                    src = int(bal.parts_before[sd])
                    dst = int(bal.parts_after[sd])
                    nbytes = self.sd_grid.dp_count(int(sd)) * BYTES_PER_DP
                    migration_futs.append(
                        self.cluster.send(src, dst, nbytes))
                    event_bytes += nbytes
                self.parts = bal.parts_after.copy()
                self._plan = None  # ownership changed: recompile
                result.parts_history.append((step, self.parts.copy()))
            result.balance_events.append(BalanceEvent(
                step=step, strategy=bal.strategy,
                sds_moved=bal.sds_moved, migration_bytes=event_bytes,
                imbalance_before=float(bal.imbalance_ratio_before),
                imbalance_after=float(bal.imbalance_ratio_after),
                recovery=bool(bal.recovery or forced)))
            # Algorithm 1 line 35: new measurement window either way
            self.cluster.reset_counters()
            self.cluster.rebase_busy_cursor(self._busy_cursor)

        if step + 1 < self._num_steps:
            if migration_futs:
                when_all(migration_futs)._add_callback(
                    lambda _f, s=step + 1: self._start_step(s))
            else:
                self._start_step(step + 1)
        else:
            self._done = True

    # -- fault handling (elastic cluster, DESIGN.md substitution 4) --------
    def _on_fail(self, node_id: int) -> None:
        """Handle a scheduled node failure at the current virtual time.

        The dead node's SDs are evacuated immediately — through the
        active balancing strategy when the run balances (the strategy
        both evacuates and redistributes toward the surviving nodes'
        power-proportional targets), mechanically otherwise (evacuation
        is a correctness requirement; rebalancing stays a policy
        choice, so a ``never`` baseline measures exactly the cost of
        not adapting).  Orphaned tasks are requeued on the new owners
        with the recovery penalty, gated on the SD-state re-fetch from
        the checkpoint store on the lead surviving node.
        """
        if self._done:
            return  # scheduled beyond the workload's end: nothing to do
        cluster = self.cluster
        orphans = cluster.fail_node(node_id)
        num_nodes = len(cluster.nodes)
        alive = np.asarray(cluster.alive_mask())
        busy = self._poll_busy()
        old_parts = self.parts
        step = self._current_step
        result = self._result

        if (self.balancer is not None
                and not isinstance(self.policy, NeverBalance)):
            bal = self.balancer.balance_step(
                old_parts, num_nodes, busy,
                work_per_sd=self._balance_work, active=alive)
            result.balance_results.append(bal)
            new_parts = bal.parts_after.copy()
            strategy = bal.strategy
            ratio_before = float(bal.imbalance_ratio_before)
            ratio_after = float(bal.imbalance_ratio_after)
            self._last_balance = step
        else:
            new_parts, _plans = evacuate_assignments(
                self.sd_grid, old_parts, alive, self._balance_work)
            strategy = "evacuate"
            alive_busy = [busy[n] for n in np.nonzero(alive)[0]]
            ratio_before = ratio_after = imbalance_ratio(alive_busy)

        # charge the data movement: live donors send their SDs as
        # ordinary migrations; the dead node's SDs are re-fetched from
        # the checkpoint store on the lead surviving node
        lead = int(cluster.active_node_ids()[0])
        migration_bytes = 0
        recovery_bytes = 0
        moved = np.nonzero(old_parts != new_parts)[0]
        for sd in moved:
            src = int(old_parts[sd])
            dst = int(new_parts[sd])
            nbytes = self.sd_grid.dp_count(int(sd)) * BYTES_PER_DP
            if alive[src]:
                fut = cluster.send(src, dst, nbytes)
                migration_bytes += nbytes
            else:
                fut = cluster.send(lead, dst, nbytes)
                self._recovery_futs[int(sd)] = fut
                if dst != lead:  # the store's own re-fetch is in-memory
                    recovery_bytes += nbytes
            self._pending_recovery_futs.append(fut)
        sds_evacuated = int(np.count_nonzero(old_parts == node_id))
        self.parts = new_parts
        self._plan = None  # ownership changed: recompile
        result.parts_history.append((step, self.parts.copy()))
        result.balance_events.append(BalanceEvent(
            step=step, strategy=strategy, sds_moved=int(len(moved)),
            migration_bytes=migration_bytes,
            imbalance_before=ratio_before, imbalance_after=ratio_after,
            recovery=True))
        result.recovery_events.append(RecoveryEvent(
            time=cluster.now, kind="fail", node=node_id, step=step,
            sds_evacuated=sds_evacuated, tasks_requeued=len(orphans),
            recovery_bytes=recovery_bytes))
        for task in orphans:
            self._requeue_orphan(task)
        # new measurement window: the old one mixes dead and live nodes
        cluster.reset_counters()
        cluster.rebase_busy_cursor(self._busy_cursor)

    def _on_join(self, event: ChurnEvent) -> None:
        """Provision the scheduled joiner; it is absorbed at the next
        balance step (the shared preamble seeds it with a frontier SD,
        the strategy routes its power-proportional share to it)."""
        if self._done:
            return
        rate = event.rate if event.rate > 0 else self._default_rate
        trace: SpeedTrace = ConstantSpeed(rate)
        windows = [(e.time, e.stop, e.factor)
                   for e in self.faults.straggles_of(event.node)]
        if windows:
            trace = StraggleSpeed(trace, windows)
        node_id = self.cluster.add_node(event.cores, trace)
        self._topology_dirty = True
        self._plan = None  # cluster grew: recompile against it
        self._result.recovery_events.append(RecoveryEvent(
            time=self.cluster.now, kind="join", node=node_id,
            step=self._current_step))

    def _requeue_orphan(self, task: SimTask) -> None:
        """Resubmit an orphaned task on its SD's new owner.

        Used both for the tasks returned by ``fail_node`` and (as the
        cluster's ``orphan_handler``) for tasks whose dependencies
        resolve after their node died.  The task restarts from scratch
        at ``(1 + recovery_penalty)`` times its work, gated on the SD's
        checkpoint re-fetch when one is in flight.
        """
        sd = int(task.tag)
        task.work *= 1.0 + self.faults.recovery_penalty
        dep = self._recovery_futs.get(sd)
        self.cluster.resubmit(task, int(self.parts[sd]),
                              deps=() if dep is None else (dep,))
