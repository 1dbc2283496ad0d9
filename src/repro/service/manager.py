"""Job admission, queueing, and co-scheduling for the solve service.

The :class:`JobManager` is the service's control plane (the
QueryManager role in serving simulators like Helix): arrivals land in
bounded per-tenant FIFO queues, overflow is shed immediately (the
stream is open-loop — nothing ever blocks the arrival process), and a
round-robin dispatcher starts up to ``max_concurrent`` admitted jobs on
the one shared :class:`SimCluster`.

An admitted job runs as a mini step-DAG: each relaxation sweep is one
task per node (the tenant's mesh rows block-split across the whole
cluster), sweeps are chained through a ``when_all`` barrier, and
between sweeps neighbouring nodes exchange one ghost-row message each
way.  Concurrent jobs' tasks interleave in the nodes' FIFO ready
queues, so multi-tenant interference emerges from the DES itself rather
than from an analytic sharing model.

Everything the run observes lands in ``manager.events`` — a columnar
:class:`repro.service.telemetry.EventLog` whose rows render as the
same plain dicts (``arrival`` / ``shed`` / ``start`` / ``finish``)
the stream has always carried — which
:func:`repro.service.telemetry.summarize_service` reduces and
``RunRecord.service_events`` persists.

Fast path (see DESIGN.md, "Service fast path"): when the cluster runs
with wave batching, sweeps go through
:meth:`repro.amt.cluster.SimCluster.submit_group` /
:meth:`~repro.amt.cluster.SimCluster.send_group` (one DES event per
sweep / exchange instead of one per task / message) and the arrival
trace is replayed by a chunked *pump*: one chained DES event per
admission-control slice, draining every arrival that provably cannot
dispatch work (fleet saturated, no earlier cluster event) with its own
timestamp.  With batching off, both collapse to the historical
one-event-per-arrival / per-task forms; the telemetry stream is
bit-identical either way.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Sequence

from ..amt.cluster import SimCluster
from ..costmodel import FLAT, WorkItem
from .arrivals import Arrival
from .spec import ServiceSpec
from .telemetry import _SHED, _START, EventLog, percentile

__all__ = ["JobManager", "ARRIVAL_PRIORITY"]

#: DES priority for arrival events: after same-instant deliveries (0)
#: and task completions (1), so a job finishing exactly when the next
#: arrival lands frees its concurrency slot first — the dispatch order
#: is then independent of how the arrival trace interleaves with the
#: cluster's own events.
ARRIVAL_PRIORITY = 2


class _Job:
    """One admitted (or queued) solve job and its DAG bookkeeping.

    ``on_sweep`` / ``on_ghosts`` are the job's two DAG continuations,
    built once at admission and handed to ``submit_group`` /
    ``send_group`` for every step — one closure per job instead of one
    per sweep.
    """

    __slots__ = ("tenant", "index", "arrival_time", "start_time", "step",
                 "label", "on_sweep", "on_ghosts")

    def __init__(self, tenant: int, index: int, arrival_time: float) -> None:
        self.tenant = tenant
        self.index = index
        self.arrival_time = arrival_time
        self.start_time = -1.0
        self.step = 0
        self.label = ""
        self.on_sweep = None
        self.on_ghosts = None


class _Template:
    """Per-tenant job shape, resolved against the *current* fleet.

    ``works[k]`` is the flops of tenant's per-sweep task on node
    ``nodes[k]`` (mesh rows block-split across the dispatchable nodes,
    cost from the shared cached operator's ``flops_per_dp``);
    ``ghosts`` the ``(src, dst, nbytes)`` ring-exchange messages issued
    between sweeps.  Templates are rebuilt on membership change
    (:meth:`JobManager.set_membership`); in-flight jobs adopt the new
    shape at their next step, since the step DAG looks the template up
    per step.
    """

    __slots__ = ("steps", "works", "ghosts", "nodes")

    def __init__(self, steps: int, works: List[float],
                 ghosts: List[tuple], nodes: List[int]) -> None:
        self.steps = steps
        self.works = works
        self.ghosts = ghosts
        self.nodes = nodes


def _build_template(tenant, flops_per_dp: float, nodes: List[int],
                    cost=FLAT, backend: str = "",
                    radius: int = 0) -> _Template:
    num_nodes = len(nodes)
    rows = [tenant.nx // num_nodes
            + (1 if k < tenant.nx % num_nodes else 0)
            for k in range(num_nodes)]
    # priced through the cost model; flat resolves each item to the
    # seed's ``(r * nx) * flops * 1.0`` — bit-identical to the inlined
    # ``r * tenant.nx * flops_per_dp`` (``x * 1.0 == x``)
    works = [cost.task_work(WorkItem(
        count=r * tenant.nx, flops=flops_per_dp, work_factor=1.0,
        backend=backend, rows=r, cols=tenant.nx, radius=radius))
        for r in rows]
    # one ghost row (8 bytes per DP) each way across every block seam;
    # seams are between *consecutive dispatchable* nodes, so a fleet
    # with retired ids in the middle still forms one ring
    ghosts = []
    for a, b in zip(nodes, nodes[1:]):
        ghosts.append((a, b, 8 * tenant.nx))
        ghosts.append((b, a, 8 * tenant.nx))
    return _Template(tenant.steps, works, ghosts, nodes)


class JobManager:
    """Admission control and dispatch over one shared cluster.

    ``flops_per_dp`` maps tenant index → per-DP work of that tenant's
    (shared, cached) operator; the manager never builds operators
    itself, so operator sharing stays the runner's concern.

    ``cost_model`` prices each per-sweep task (default: the shared
    ``flat`` model, the seed arithmetic); ``backend_info`` maps tenant
    index → ``(backend_name, radius)`` so shape-aware models know what
    kernel each tenant runs — absent entries fall back to the flat
    arithmetic for that tenant.
    """

    def __init__(self, cluster: SimCluster, spec: ServiceSpec,
                 flops_per_dp: Dict[int, float],
                 cost_model=None,
                 backend_info: Dict[int, tuple] = None) -> None:
        self.cluster = cluster
        self.spec = spec
        self._flops_per_dp = dict(flops_per_dp)
        self._cost_model = FLAT if cost_model is None else cost_model
        self._backend_info = dict(backend_info) if backend_info else {}
        self._membership = list(range(spec.cluster.num_nodes))
        self.templates = [
            _build_template(t, flops_per_dp[i], self._membership,
                            self._cost_model,
                            *self._backend_info.get(i, ("", 0)))
            for i, t in enumerate(spec.tenants)]
        self.queues: List[Deque[_Job]] = [deque() for _ in spec.tenants]
        self.events = EventLog([t.name for t in spec.tenants])
        self.running = 0
        self.jobs_in_flight = 0
        self._rr = 0  # next tenant the round-robin scan starts from
        # admission limits, hoisted off the frozen spec for the pump's
        # per-arrival hot path
        self._max_depth = spec.max_queue_depth
        self._max_concurrent = spec.max_concurrent
        # arrival-pump state (fast feed path only)
        self._arr_times: Sequence[float] = ()
        self._arr_tenants: Sequence[int] = ()
        self._arr_indices: Sequence[int] = ()
        self._arr_cursor = 0
        # autoscale signal feed: events already reduced by poll_signals
        self._signal_cursor = 0

    # -- elastic membership (autoscale hooks) ------------------------------
    def set_membership(self, node_ids: Sequence[int]) -> None:
        """Re-split every tenant's job over the given dispatchable fleet.

        Wired as the :class:`~repro.amt.autoscale.AutoscaleController`'s
        ``on_membership_change`` callback.  Takes effect at each job's
        next step — the step DAG resolves ``self.templates`` per step —
        so in-flight sweeps on a draining node finish where they are
        while new sweeps avoid it.
        """
        nodes = sorted(node_ids)
        if not nodes:
            raise ValueError("membership must contain at least one node")
        if nodes == self._membership:
            return
        self._membership = nodes
        self.templates = [
            _build_template(t, self._flops_per_dp[i], nodes,
                            self._cost_model,
                            *self._backend_info.get(i, ("", 0)))
            for i, t in enumerate(self.spec.tenants)]

    def poll_signals(self, now: float, dt: float) -> Dict[str, float]:
        """Service-level signals since the previous poll.

        Wired as the controller's ``metrics`` callback: reduces only
        the telemetry appended since the last call (a cursor into the
        columnar log, so polling is O(new events), not O(history)).
        """
        events = self.events
        n = len(events)
        kinds = events._kind
        extras = events._extra
        waits: List[float] = []
        sheds = 0
        for i in range(self._signal_cursor, n):
            kind = kinds[i]
            if kind == _START:
                waits.append(extras[i][0])
            elif kind == _SHED:
                sheds += 1
        self._signal_cursor = n
        return {
            "p99_wait": percentile(waits, 99) if waits else 0.0,
            "shed_rate": sheds / dt if dt > 0 else 0.0,
            "queue_depth": float(sum(len(q) for q in self.queues)),
        }

    # -- arrival / admission ----------------------------------------------
    def feed(self, arrivals: List[Arrival]) -> None:
        """Replay the whole trace as absolute-time DES events."""
        if self.cluster.wave_batching:
            self.feed_columnar([a.time for a in arrivals],
                               [a.tenant for a in arrivals],
                               [a.index for a in arrivals])
            return
        for arr in arrivals:
            self.cluster.sim.schedule(
                arr.time, lambda a=arr: self.on_arrival(a),
                priority=ARRIVAL_PRIORITY, klass="arrival")

    def feed_columnar(self, times: Sequence[float],
                      tenants: Sequence[int],
                      indices: Sequence[int]) -> None:
        """Replay a ``(times, tenants, indices)`` trace via the pump.

        One chained DES event per admission-control slice instead of
        one per arrival: when the pump fires it processes the due
        arrival, then keeps draining while the fleet is saturated
        (``running == max_concurrent``) and the next arrival precedes
        every other pending DES event — such an arrival can only queue
        or shed, never dispatch work, so consuming it inline with its
        own timestamp is indistinguishable from a dedicated event.
        With batching off this falls back to one event per arrival.
        """
        if not self.cluster.wave_batching:
            self.feed([Arrival(t, n, k)
                       for t, n, k in zip(times, tenants, indices)])
            return
        if not len(times):
            return
        self._arr_times = times
        self._arr_tenants = tenants
        self._arr_indices = indices
        self._arr_cursor = 0
        self.cluster.sim.schedule(
            times[0], self._pump,
            priority=ARRIVAL_PRIORITY, klass="arrival")

    def _pump(self) -> None:
        times = self._arr_times
        tenants = self._arr_tenants
        indices = self._arr_indices
        i = self._arr_cursor
        n = len(times)
        # the due arrival — may start a job, so handle it alone first
        self._on_arrival(times[i], tenants[i], indices[i])
        i += 1
        if i < n and self.running >= self._max_concurrent:
            # drain-ahead: while saturated, an arrival strictly earlier
            # than the next queued DES event cannot observe anything a
            # dedicated event would (no completion frees a slot before
            # it, and arrivals never unsaturate the fleet).  Clamped at
            # the active run(until=...) boundary: an arrival past the
            # cut must stay queued, or a caller reading the event log
            # when run() returns would see timestamps from the future.
            sim = self.cluster.sim
            peek = sim.peek_time
            cut = sim.run_until
            nxt = peek()
            while i < n and (nxt is None or times[i] < nxt) \
                    and (cut is None or times[i] <= cut):
                self._on_arrival(times[i], tenants[i], indices[i])
                i += 1
                if self.running < self._max_concurrent:
                    break  # a slot opened (shouldn't happen) — resync
                nxt = peek()
        self._arr_cursor = i
        if i < n:
            self.cluster.sim.schedule(
                times[i], self._pump,
                priority=ARRIVAL_PRIORITY, klass="arrival")

    def on_arrival(self, arr: Arrival) -> None:
        self._on_arrival(self.cluster.now, arr.tenant, arr.index)

    def _on_arrival(self, t: float, tenant: int, index: int) -> None:
        events = self.events
        events.arrival(t, tenant, index)
        queue = self.queues[tenant]
        if len(queue) >= self._max_depth:
            events.shed(t, tenant, index, len(queue))
            return
        queue.append(_Job(tenant, index, t))
        self._dispatch()

    # -- dispatch ----------------------------------------------------------
    def _dispatch(self) -> None:
        num_tenants = len(self.queues)
        while self.running < self._max_concurrent:
            job = None
            for k in range(num_tenants):
                tenant = (self._rr + k) % num_tenants
                if self.queues[tenant]:
                    job = self.queues[tenant].popleft()
                    self._rr = (tenant + 1) % num_tenants
                    break
            if job is None:
                return
            self.running += 1
            self.jobs_in_flight += 1
            self._start(job)

    def _start(self, job: _Job) -> None:
        now = self.cluster.now
        job.start_time = now
        job.label = f"{self.spec.tenants[job.tenant].name}/{job.index}"
        job.on_sweep = lambda: self._exchange_ghosts(job)
        job.on_ghosts = lambda: self._run_step(job)
        self.events.start(now, job.tenant, job.index,
                          now - job.arrival_time)
        self._run_step(job)

    # -- the per-job step DAG ---------------------------------------------
    def _run_step(self, job: _Job) -> None:
        template = self.templates[job.tenant]
        if job.step >= template.steps:
            self._finish(job)
            return
        self.cluster.submit_group(template.works, label=job.label,
                                  callback=job.on_sweep,
                                  nodes=template.nodes)

    def _exchange_ghosts(self, job: _Job) -> None:
        job.step += 1
        template = self.templates[job.tenant]
        if job.step >= template.steps or not template.ghosts:
            # last sweep needs no exchange; single-node jobs never do
            self._run_step(job)
            return
        self.cluster.send_group(template.ghosts, callback=job.on_ghosts)

    def _finish(self, job: _Job) -> None:
        # each continuation closes over its job: drop them so the
        # finished job is freed by reference counting, not the collector
        job.on_sweep = job.on_ghosts = None
        now = self.cluster.now
        self.events.finish(now, job.tenant, job.index,
                           job.start_time - job.arrival_time,
                           now - job.arrival_time,
                           now - job.start_time)
        self.running -= 1
        self.jobs_in_flight -= 1
        self._dispatch()
