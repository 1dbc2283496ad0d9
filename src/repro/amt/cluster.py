"""Simulated distributed cluster with real computation and virtual time.

This is the substitution for the paper's HPX/MPI Skylake cluster (see
DESIGN.md).  The key idea: tasks submitted to a :class:`SimCluster` carry
both

* a **work amount** (abstract work units, e.g. DP-updates × stencil size)
  that determines how long the task occupies a simulated core, and
* an optional **action** (a real Python callable) that executes when
  the task completes; the task's future resolves with its return value,
  as an ``hpx::async`` future does.

Nodes have a bounded core count and a per-core speed *trace* (work units
per virtual second, possibly time-varying — that is how heterogeneous and
time-varying compute capacity from the paper's Sec. 4 challenge 4 enters).
Messages pay ``latency + bytes/bandwidth`` and serialize on the sender's
egress link.  Busy time is accumulated into
:class:`repro.amt.counters.BusyTimeCounter` instances registered in AGAS,
which is exactly what the load balancer polls.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from itertools import islice
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..costmodel import FLAT, WorkItem
from .agas import AddressSpace
from .counters import BusyTimeCounter, CounterRegistry
from .des import Event, SimulationError, Simulator
from .future import _MULTI, Future, when_all
from .topology import FlatTopology, Topology

__all__ = ["SpeedTrace", "ConstantSpeed", "PiecewiseSpeed", "RampSpeed",
           "StraggleSpeed", "SimNode", "SimTask", "SimCluster",
           "BusyCursor"]


# ---------------------------------------------------------------------------
# speed traces
# ---------------------------------------------------------------------------

class SpeedTrace:
    """Per-core compute rate as a function of virtual time.

    Subclasses implement :meth:`rate` and :meth:`time_to_complete`.  The
    latter answers "starting at ``t0``, how long until ``work`` units are
    done?", i.e. it inverts the integral of the rate.  Keeping this on the
    trace lets piecewise traces integrate exactly instead of sampling the
    rate at task start.
    """

    def rate(self, t: float) -> float:
        """Instantaneous work units per second at virtual time ``t``."""
        raise NotImplementedError

    def time_to_complete(self, work: float, t0: float) -> float:
        """Seconds to finish ``work`` units when starting at ``t0``."""
        raise NotImplementedError

    def work_until(self, t0: float, t1: float) -> float:
        """Work units completed over ``[t0, t1]`` (the rate's integral).

        The inverse view of :meth:`time_to_complete`; needed by
        :class:`StraggleSpeed` to compose transient slowdown windows
        onto *any* base trace exactly (no sampling, schedules stay
        deterministic).
        """
        raise NotImplementedError


class ConstantSpeed(SpeedTrace):
    """A fixed rate; the common case for homogeneous scaling studies."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._rate = float(rate)

    def rate(self, t: float) -> float:
        return self._rate

    def time_to_complete(self, work: float, t0: float) -> float:
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        return work / self._rate

    def work_until(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ValueError(f"need t1 >= t0, got [{t0}, {t1}]")
        return (t1 - t0) * self._rate


class PiecewiseSpeed(SpeedTrace):
    """Piecewise-constant rate over ``[t_i, t_{i+1})`` intervals.

    Used to emulate nodes whose capacity changes over time (external jobs
    being scheduled alongside ours — the paper's motivating scenario for
    dynamic balancing).  Completion times integrate the rate exactly
    across breakpoints.

    Parameters
    ----------
    breakpoints:
        Strictly increasing times ``t_1 < t_2 < ...``; the rate before
        ``t_1`` is ``rates[0]``, between ``t_i`` and ``t_{i+1}`` it is
        ``rates[i]``, and after the last breakpoint ``rates[-1]``.
    rates:
        ``len(breakpoints) + 1`` positive rates.
    """

    def __init__(self, breakpoints: Sequence[float], rates: Sequence[float]) -> None:
        if len(rates) != len(breakpoints) + 1:
            raise ValueError("need len(rates) == len(breakpoints) + 1")
        if any(r <= 0 for r in rates):
            raise ValueError("all rates must be positive")
        if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        self._bp = [float(b) for b in breakpoints]
        self._rates = [float(r) for r in rates]

    def rate(self, t: float) -> float:
        # index of the first breakpoint > t; past the last one this is
        # len(breakpoints), i.e. rates[-1]
        return self._rates[bisect_right(self._bp, t)]

    def time_to_complete(self, work: float, t0: float) -> float:
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        remaining = float(work)
        t = float(t0)
        bp = self._bp
        # walk segments from the first breakpoint past t0, consuming work
        # at each segment's rate (bisect replaces the linear skip; the
        # arithmetic per consumed segment is unchanged)
        for i in range(bisect_right(bp, t), len(bp)):
            b = bp[i]
            seg_rate = self._rates[i]
            seg_capacity = (b - t) * seg_rate
            if remaining <= seg_capacity:
                return (t + remaining / seg_rate) - t0
            remaining -= seg_capacity
            t = b
        return (t + remaining / self._rates[-1]) - t0

    def work_until(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ValueError(f"need t1 >= t0, got [{t0}, {t1}]")
        done = 0.0
        t = float(t0)
        bp = self._bp
        for i in range(bisect_right(bp, t), len(bp)):
            b = bp[i]
            if t1 <= b:
                return done + (t1 - t) * self._rates[i]
            done += (b - t) * self._rates[i]
            t = b
        return done + (t1 - t) * self._rates[-1]


class RampSpeed(SpeedTrace):
    """Linear capacity drift: ``rate0`` before ``t0``, ramping linearly
    to ``rate1`` over ``[t0, t1]``, ``rate1`` after.

    Models *gradually* shifting node capacity (a co-located job slowly
    scaling up, thermal drift) as opposed to :class:`PiecewiseSpeed`'s
    step changes — the workload where one-shot balancing decisions age
    badly and adaptive re-balancing pays off.  Completion times
    integrate the ramp exactly (closed form per segment), so schedules
    remain deterministic and machine-independent.
    """

    def __init__(self, rate0: float, rate1: float, t0: float, t1: float) -> None:
        if rate0 <= 0 or rate1 <= 0:
            raise ValueError("rates must be positive")
        if not 0 <= t0 < t1:
            raise ValueError(f"need 0 <= t0 < t1, got [{t0}, {t1}]")
        self.rate0 = float(rate0)
        self.rate1 = float(rate1)
        self.t0 = float(t0)
        self.t1 = float(t1)
        self._slope = (self.rate1 - self.rate0) / (self.t1 - self.t0)

    def rate(self, t: float) -> float:
        if t <= self.t0:
            return self.rate0
        if t >= self.t1:
            return self.rate1
        return self.rate0 + self._slope * (t - self.t0)

    def time_to_complete(self, work: float, t0: float) -> float:
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        remaining = float(work)
        t = float(t0)
        # flat head segment
        if t < self.t0:
            head = (self.t0 - t) * self.rate0
            if remaining <= head:
                return (t + remaining / self.rate0) - t0
            remaining -= head
            t = self.t0
        # ramp segment: integral of r(a) + slope*x over x in [0, dt]
        if t < self.t1 and self._slope != 0.0:
            r_here = self.rate(t)
            ramp_capacity = 0.5 * (r_here + self.rate1) * (self.t1 - t)
            if remaining <= ramp_capacity:
                # solve slope/2 * x^2 + r_here * x = remaining for x > 0
                disc = r_here * r_here + 2.0 * self._slope * remaining
                x = (math.sqrt(disc) - r_here) / self._slope
                return (t + x) - t0
            remaining -= ramp_capacity
            t = self.t1
        elif t < self.t1:  # degenerate flat "ramp" (rate0 == rate1)
            cap = (self.t1 - t) * self.rate0
            if remaining <= cap:
                return (t + remaining / self.rate0) - t0
            remaining -= cap
            t = self.t1
        return (t + remaining / self.rate1) - t0

    def work_until(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ValueError(f"need t1 >= t0, got [{t0}, {t1}]")
        done = 0.0
        t = float(t0)
        if t < self.t0:
            end = min(t1, self.t0)
            done += (end - t) * self.rate0
            t = end
        if t < t1 and t < self.t1:
            end = min(t1, self.t1)
            # trapezoid: the ramp is linear between t and end
            done += 0.5 * (self.rate(t) + self.rate(end)) * (end - t)
            t = end
        if t < t1:
            done += (t1 - t) * self.rate1
        return done


class StraggleSpeed(SpeedTrace):
    """A base trace scaled down over transient straggle windows.

    During each window ``[start, stop)`` the node delivers ``factor``
    times the base trace's rate — the fault model's straggler
    (DESIGN.md substitution 4).  Composition is exact: completion times
    invert the scaled integral segment by segment using the base
    trace's own :meth:`SpeedTrace.work_until` / ``time_to_complete``,
    so arbitrary bases (constant, piecewise, ramp, even another
    straggle wrapper) keep bit-identical, machine-independent
    schedules.

    Parameters
    ----------
    base:
        The unperturbed speed trace.
    windows:
        ``(start, stop, factor)`` triples; must be non-overlapping with
        ``start < stop`` and ``factor`` in ``(0, 1]``.  Stored sorted
        by start time.
    """

    def __init__(self, base: SpeedTrace,
                 windows: Sequence[tuple]) -> None:
        self.base = base
        wins = sorted((float(a), float(b), float(f)) for a, b, f in windows)
        for a, b, f in wins:
            if not b > a:
                raise ValueError(f"straggle window needs stop > start, "
                                 f"got [{a}, {b})")
            if not 0 < f <= 1:
                raise ValueError(f"straggle factor must be in (0, 1], got {f}")
        for (_, b1, _), (a2, _, _) in zip(wins, wins[1:]):
            if a2 < b1:
                raise ValueError("straggle windows must not overlap")
        self.windows = wins
        self._starts = [a for a, _, _ in wins]
        # non-overlap gives a1 < b1 <= a2 < b2 < ..., so the interleaved
        # edge list is already sorted (b_i == a_{i+1} duplicates kept)
        self._edges: List[float] = []
        for a, b, _ in wins:
            self._edges.append(a)
            self._edges.append(b)

    def _factor_at(self, t: float) -> float:
        i = bisect_right(self._starts, t) - 1
        if i >= 0 and t < self.windows[i][1]:
            return self.windows[i][2]
        return 1.0

    def rate(self, t: float) -> float:
        return self.base.rate(t) * self._factor_at(t)

    def _boundaries_after(self, t: float) -> List[float]:
        return self._edges[bisect_right(self._edges, t):]

    def work_until(self, t0: float, t1: float) -> float:
        if t1 < t0:
            raise ValueError(f"need t1 >= t0, got [{t0}, {t1}]")
        done = 0.0
        t = float(t0)
        for edge in self._boundaries_after(t):
            if edge >= t1:
                break
            done += self.base.work_until(t, edge) * self._factor_at(t)
            t = edge
        return done + self.base.work_until(t, t1) * self._factor_at(t)

    def time_to_complete(self, work: float, t0: float) -> float:
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        remaining = float(work)
        t = float(t0)
        for edge in self._boundaries_after(t):
            f = self._factor_at(t)
            capacity = self.base.work_until(t, edge) * f
            if remaining <= capacity:
                # finish within this segment: the base must deliver
                # remaining / f of unscaled work starting at t
                return (t + self.base.time_to_complete(remaining / f, t)) - t0
            remaining -= capacity
            t = edge
        f = self._factor_at(t)
        return (t + self.base.time_to_complete(remaining / f, t)) - t0


# ---------------------------------------------------------------------------
# nodes and tasks
# ---------------------------------------------------------------------------

class SimTask:
    """A unit of simulated work bound to a node.

    The task's :attr:`future` resolves — at the task's virtual completion
    time — with the return value of ``action()`` (or ``None``).

    ``tag`` is an opaque owner-supplied marker (the distributed solver
    stores the SD id) so that a task orphaned by a node failure can be
    requeued on the SD's new owner.  ``node_id`` is rewritten when the
    cluster resubmits an orphan.
    """

    __slots__ = ("node_id", "work", "action", "future", "label", "tag")

    def __init__(self, node_id: int, work: float,
                 action: Optional[Callable[[], Any]], label: str,
                 tag: Any = None) -> None:
        self.node_id = node_id
        self.work = float(work)
        self.action = action
        # single-threaded DES: the lock-free future variant
        self.future: Future = Future()
        self.label = label
        self.tag = tag


class _Batch:
    """Task completions deferred into pending entries, retired by one event.

    Each task is an entry ``(start, finish, work, batch)`` in its node's
    FIFO :attr:`SimNode.pending`.  The event at the latest finish
    (:meth:`SimCluster._complete_batch`) retires the entries on
    ``nodes`` and calls ``fire``.  A **run** (``tasks`` set) is a prefix
    of one node's ready queue: it holds the core, and ``fire`` resolves
    the members in task order, frees the core and re-dispatches.  A
    **group** (``tasks is None``, from :meth:`SimCluster.submit_group`)
    has one entry per node; ``fire`` is the barrier resolver or the
    caller's callback.  ``remaining`` counts a reverted group's
    uncompleted tasks.
    """

    __slots__ = ("fire", "remaining", "nodes", "tasks", "event")

    def __init__(self, fire, nodes: List["SimNode"],
                 tasks: Optional[List[SimTask]] = None) -> None:
        self.fire = fire
        self.remaining = 0
        self.nodes = nodes
        self.tasks = tasks
        self.event: Optional[Event] = None


class SimNode:
    """A simulated compute node: bounded cores + a speed trace.

    Scheduling is FIFO per node: ready tasks wait in a queue and occupy a
    core for ``trace.time_to_complete(work, start)`` virtual seconds.  The
    node's :class:`BusyTimeCounter` accumulates core-seconds of execution.
    """

    def __init__(self, node_id: int, cores: int, trace: SpeedTrace,
                 counter: BusyTimeCounter, memory=None) -> None:
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        self.node_id = node_id
        self.cores = cores
        self.trace = trace
        self.counter = counter
        #: the node's :class:`repro.costmodel.MemoryHierarchy` (or
        #: ``None``): what hierarchy-aware cost models price tasks
        #: against; inert under the flat model
        self.memory = memory
        #: monotone count of busy-time credits (task completions,
        #: pending-entry retirements) since construction — the change
        #: detector behind :meth:`SimCluster.poll_busy`'s cursor
        self.busy_marks = 0
        self.free_cores = cores
        self.ready: Deque[SimTask] = deque()
        self.tasks_completed = 0
        self.work_completed = 0.0
        #: ``False`` once the node has failed (permanently; a "rejoin"
        #: is a fresh node with a new id)
        self.alive = True
        #: in-flight tasks: task -> (busy-counter token, completion
        #: Event), so a failure can truncate busy time and cancel the
        #: scheduled completions deterministically
        self.running: Dict[SimTask, tuple] = {}
        #: FIFO of deferred completions ``(start, finish, work, batch)``
        #: (see :class:`_Batch`): one run's entries or group entries,
        #: never both; finishes are non-decreasing.  Stored flat, four
        #: slots per entry, so in-flight entries allocate no GC-tracked
        #: tuples (a long run would hold hundreds across collections)
        self.pending: Deque[Any] = deque()
        #: virtual finish time of the last pending entry — the node's
        #: schedule horizon for tail-scheduling the next entry while
        #: ``pending`` is non-empty
        self.tail = 0.0
        #: static half of batching eligibility, folded with the
        #: constant rate: ``trace._rate`` when the node is single-core
        #: with a :class:`ConstantSpeed` trace, else 0.0 (``cores`` and
        #: ``trace`` are assign-once, so this never goes stale)
        self.group_rate = (trace._rate
                           if cores == 1 and type(trace) is ConstantSpeed
                           else 0.0)

    def busy_time(self) -> float:
        """Window busy core-seconds (since last counter reset)."""
        return self.counter.value()


class BusyCursor:
    """Per-caller state for incremental busy-time polls.

    Pairs a last-seen :attr:`SimNode.busy_marks` with the window value
    read at that mark, per node.  :meth:`SimCluster.poll_busy` re-reads
    only nodes whose marks moved (or that hold un-flushed group
    entries) — every other node's cached float *is* the value a full
    sweep would read, bit for bit, because nothing touched its counter.
    Create one cursor per measurement consumer (the balancer keeps its
    own) and realign it with :meth:`SimCluster.rebase_busy_cursor`
    after every ``reset_counters``.
    """

    __slots__ = ("marks", "values")

    def __init__(self) -> None:
        self.marks: List[int] = []
        self.values: List[float] = []

    def _ensure(self, n: int) -> None:
        # joiners enter with an impossible mark so their first poll
        # always reads the counter
        while len(self.marks) < n:
            self.marks.append(-1)
            self.values.append(0.0)


class SimCluster:
    """The distributed-machine model: nodes + network + virtual clock.

    Typical usage by the distributed solver::

        cluster = SimCluster(num_nodes=4, cores_per_node=1)
        fut = cluster.submit(node_id=2, work=1e6, action=kernel)
        msg = cluster.send(src=0, dst=1, nbytes=8*512, payload=ghost_array)
        cluster.run()            # drain virtual time
        ghost = msg.get()        # delivered payload

    Determinism: with identical submission order, the virtual schedule is
    bit-identical across runs (no wall-clock coupling anywhere).
    """

    def __init__(self, num_nodes: int, cores_per_node: int = 1,
                 speeds: Optional[Sequence[SpeedTrace]] = None,
                 network: Optional[Topology] = None,
                 agas: Optional[AddressSpace] = None,
                 wave_batching: bool = True,
                 default_rate: float = 1.0,
                 cost_model=None, memory=None) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if default_rate <= 0:
            raise ValueError(
                f"default_rate must be > 0, got {default_rate}")
        #: flops/s a node delivers when no explicit trace is given —
        #: used both for construction (``speeds=None``) and for
        #: mid-simulation joiners (:meth:`add_node` with ``trace=None``),
        #: matching the ``ChurnEvent.join`` ``rate=0`` → "solver
        #: default" contract.  A service cluster running at 1e9 flops/s
        #: would otherwise hand a joiner the bare unit-test rate of 1.0
        #: — a billion times slow.
        self.default_rate = float(default_rate)
        self.sim = Simulator()
        #: defer completions into :class:`_Batch` es; ``False`` is the
        #: one-event-per-task reference path
        self.wave_batching = bool(wave_batching)
        #: resolves :class:`repro.costmodel.WorkItem` submissions to
        #: work floats; raw float submissions bypass it entirely, so a
        #: bare cluster behaves exactly as before the cost-model layer
        self.cost_model = cost_model if cost_model is not None else FLAT
        #: memory hierarchy stamped onto every node (``None`` = none)
        self.memory = memory
        self.agas = agas if agas is not None else AddressSpace()
        self.counters = CounterRegistry(self.agas)
        self.network = network if network is not None else FlatTopology()
        if speeds is None:
            speeds = [ConstantSpeed(self.default_rate)
                      for _ in range(num_nodes)]
        if len(speeds) != num_nodes:
            raise ValueError(f"need {num_nodes} speed traces, got {len(speeds)}")
        self.nodes: List[SimNode] = []
        for i in range(num_nodes):
            counter = self.counters.create_busy_time(f"node{i}")
            self.nodes.append(SimNode(i, cores_per_node, speeds[i], counter,
                                      memory=memory))
        #: called with each :class:`SimTask` that targets a dead node
        #: (set by the distributed solver after a failure); the handler
        #: must route the task to a live node via :meth:`resubmit`
        self.orphan_handler: Optional[Callable[[SimTask], None]] = None

    # -- submission --------------------------------------------------------
    def submit(self, node_id: int, work: float,
               action: Optional[Callable[[], Any]] = None,
               deps: Sequence[Future] = (), label: str = "task",
               tag: Any = None) -> Future:
        """Queue a task on ``node_id`` once all ``deps`` are ready.

        Returns the task's future.  ``deps`` are typically message futures
        (ghost data) or other task futures; the task enters the node's
        ready queue at the virtual time the last dependency resolves,
        which is how communication/computation overlap arises naturally.

        ``node_id`` must be alive at submission time; a task whose deps
        resolve *after* the node failed is handed to
        :attr:`orphan_handler` instead of running on the dead node.

        ``work`` may be a plain float (work units, as always) or a
        :class:`repro.costmodel.WorkItem`, which the cluster's cost
        model resolves to work units here — before the task exists —
        so waves, group prefix sums, and the step-plan cache all
        operate on ordinary resolved floats.
        """
        if isinstance(work, WorkItem):
            work = self.cost_model.task_work(work)
        node = self._node(node_id)
        if not node.alive:
            raise SimulationError(f"cannot submit to failed node {node_id}")
        task = SimTask(node_id, work, action, label, tag=tag)
        if not deps:
            self._enqueue(node, task)
        else:
            when_all(list(deps))._add_callback(
                lambda _f: self._enqueue(node, task))
        return task.future

    def resubmit(self, task: SimTask, node_id: int,
                 deps: Sequence[Future] = ()) -> None:
        """Requeue an orphaned ``task`` on live ``node_id``.

        The task keeps its original future, so step barriers built from
        :func:`repro.amt.future.when_all` over the pre-failure futures
        still fire once the requeued work completes.  The caller (the
        solver's recovery path) adjusts ``task.work`` for the recovery
        penalty and passes the checkpoint re-fetch message as a dep.
        """
        node = self._node(node_id)
        if not node.alive:
            raise SimulationError(
                f"cannot requeue task on failed node {node_id}")
        if task.future.is_ready():
            raise SimulationError("cannot requeue a completed task")
        task.node_id = node_id
        if not deps:
            self._enqueue(node, task)
        else:
            when_all(list(deps))._add_callback(
                lambda _f: self._enqueue(node, task))

    def timer(self, delay: float, payload: Any = None) -> Future:
        """A future that resolves ``delay`` virtual seconds from now.

        Used to model serial per-task spawn overhead (a node's scheduler
        enqueues tasks one after another) and any other fixed delays.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        fut = Future()
        if delay == 0:
            fut._set_value(payload)
        else:
            self.sim.schedule_after(delay, lambda: fut._set_value(payload),
                                    priority=0, klass="timer")
        return fut

    def send(self, src: int, dst: int, nbytes: int, payload: Any = None) -> Future:
        """Send ``payload`` from node ``src`` to ``dst``; future resolves on delivery."""
        self._node(src)
        self._node(dst)
        fut = Future()
        arrival = self.network.plan_send(src, dst, nbytes, self.sim.now)
        if arrival <= self.sim.now:
            fut._set_value(payload)
        else:
            # priority 0: deliveries fire before same-time task completions
            self.sim.schedule(arrival, lambda: fut._set_value(payload),
                              priority=0, klass="delivery")
        return fut

    def send_many(self, messages: Sequence[Tuple[int, int, int]]) -> List[Future]:
        """Issue ``(src, dst, nbytes)`` sends back-to-back; one future each.

        Semantically ``[self.send(src, dst, nbytes) for ...]`` — same
        network planning, same delivery events in the same order —
        with the per-message attribute lookups and validation hoisted
        out of the loop.  This is the replay hot path for compiled step
        plans: a 512-node ghost exchange issues tens of thousands of
        messages per step at one virtual instant.
        """
        sim = self.sim
        now = sim.now
        schedule = sim.schedule
        plan_send = self.network.plan_send
        num_nodes = len(self.nodes)
        futures: List[Future] = []
        append = futures.append
        for src, dst, nbytes in messages:
            if src >= num_nodes or dst >= num_nodes or src < 0 or dst < 0:
                raise SimulationError(f"unknown node in send {src}->{dst}")
            fut = Future()
            arrival = plan_send(src, dst, nbytes, now)
            if arrival <= now:
                fut._set_value(None)
            else:
                schedule(arrival, fut._resolve_none, priority=0,
                         klass="delivery")
            append(fut)
        return futures

    def submit_group(self, works: Sequence[float], label: str = "task",
                     callback=None,
                     nodes: Optional[Sequence[int]] = None
                     ) -> Optional[Future]:
        """Queue ``works[k]`` on node ``nodes[k]``; one barrier future.

        ``nodes`` defaults to ``0..len(works)-1`` (the historical
        dense-fleet form); an explicit sequence targets an arbitrary
        subset of node ids — the membership-aware form the service
        manager uses once autoscaling grows or drains the fleet, since
        dead nodes keep their ids.  Semantically identical to::

            when_all([self.submit(nid, w, label=label)
                      for nid, w in zip(nodes, works)])

        and falls back to exactly that when batching is off or any
        target node is not on the group fast path (dead, multi-core,
        non-constant speed, its core busy with a per-event task or a
        one-node run, or tasks waiting in its ready queue).  On the fast
        path each task becomes a *pending entry* of one :class:`_Batch`,
        tail-scheduled behind the node's previous entry — ``start =
        max(tail, now)``, ``finish = start + work/rate``, the identical
        float64 arithmetic the per-event dispatch performs — and the
        whole group completes through a single DES event at its latest
        finish, where the barrier future resolves.  This is the service
        hot path: one event per job *step* instead of one per task (see
        DESIGN.md, "Service fast path").

        With ``callback`` (a zero-arg callable) no barrier future is
        built at all: the callback runs exactly where the future would
        have resolved, and the method returns ``None``.  That skips one
        future plus its subscription per group — the service manager's
        per-sweep continuation path.

        ``works`` may be :class:`repro.costmodel.WorkItem` s (all or
        none — no mixing), resolved through the cluster's cost model up
        front so the tail-scheduling arithmetic below sees floats.
        """
        if works and isinstance(works[0], WorkItem):
            works = [self.cost_model.task_work(w) for w in works]
        if nodes is None:
            ids: Sequence[int] = range(len(works))
        else:
            if len(nodes) != len(works):
                raise SimulationError(
                    f"group of {len(works)} tasks got {len(nodes)} "
                    f"target nodes")
            ids = nodes
        targets: Optional[List[SimNode]] = None
        if self.wave_batching:
            all_nodes = self.nodes
            num_nodes = len(all_nodes)
            targets = []
            for nid, work in zip(ids, works):
                if not 0 <= nid < num_nodes:
                    raise SimulationError(f"unknown node id {nid}")
                node = all_nodes[nid]
                # a single-core node's core is free only when no
                # per-event task or run holds it and the node is alive
                # (a failure zeroes it); group entries leave it free.  A
                # completion frees the core before it re-dispatches, so
                # a callback can still find queued ready tasks here
                if (work < 0.0 or node.group_rate == 0.0
                        or not node.free_cores or node.ready):
                    targets = None
                    break
                targets.append(node)
        if targets is None:
            fut = when_all(
                [self.submit(nid, w, label=label)
                 for nid, w in zip(ids, works)])
            if callback is None:
                return fut
            fut._add_callback(lambda _f: callback())
            return None
        fut = Future() if callback is None else None
        batch = _Batch(callback or fut._resolve_none, targets)
        t_max = self._append_entries(targets, works, batch)
        batch.event = self.sim.schedule(
            t_max, lambda b=batch: self._complete_batch(b),
            priority=1, klass="wave")
        return fut

    def send_group(self, messages: Sequence[Tuple[int, int, int]],
                   callback=None) -> Optional[Future]:
        """Issue sends back-to-back; one barrier future for the batch.

        Semantically ``when_all(self.send_many(messages))`` — the
        network planning, egress serialization and byte accounting are
        identical and happen eagerly in message order — but on the fast
        path only *one* delivery event is scheduled, at the latest
        arrival time, which is exactly when the barrier over the
        individual deliveries would fire.  Falls back to the per-message
        form when wave batching is off.  The distributed solver calls it
        once per consumer SD (that SD's halo), the service manager once
        per job exchange.

        With ``callback`` (zero-arg) the barrier future is skipped: the
        callback runs where it would have resolved — synchronously when
        every arrival is instantaneous, else in the one delivery event —
        and the method returns ``None``.
        """
        if not self.wave_batching:
            fut = when_all(self.send_many(messages))
            if callback is None:
                return fut
            fut._add_callback(lambda _f: callback())
            return None
        sim = self.sim
        now = sim.now
        plan_send = self.network.plan_send
        num_nodes = len(self.nodes)
        t_max = now
        for src, dst, nbytes in messages:
            if src >= num_nodes or dst >= num_nodes or src < 0 or dst < 0:
                raise SimulationError(f"unknown node in send {src}->{dst}")
            arrival = plan_send(src, dst, nbytes, now)
            if arrival > t_max:
                t_max = arrival
        if callback is not None:
            if t_max <= now:
                callback()
            else:
                sim.schedule(t_max, callback, priority=0,
                             klass="delivery")
            return None
        fut = Future()
        if t_max <= now:
            fut._set_value(None)
        else:
            sim.schedule(t_max, fut._resolve_none, priority=0,
                         klass="delivery")
        return fut

    # -- membership (elastic cluster, DESIGN.md substitution 4) ------------
    def add_node(self, cores: int = 1,
                 trace: Optional[SpeedTrace] = None) -> int:
        """Provision a new node mid-simulation; returns its id.

        The node starts alive, idle, and with a fresh busy-time counter
        whose measurement window begins now — its busy fraction is
        comparable to the incumbents' from the next counter reset on.  Without an
        explicit ``trace`` the joiner runs at the cluster's
        ``default_rate`` (the same default construction uses), so a
        joiner is never slower than the fleet by accident.
        """
        i = len(self.nodes)
        counter = self.counters.create_busy_time(f"node{i}")
        if trace is None:
            trace = ConstantSpeed(self.default_rate)
        self.nodes.append(SimNode(i, cores, trace, counter,
                                  memory=self.memory))
        return i

    def fail_node(self, node_id: int) -> List[SimTask]:
        """Kill ``node_id`` now; returns its orphaned tasks.

        In-flight tasks have their scheduled completions cancelled and
        their busy intervals truncated at the failure instant (partial
        work is *lost* — a requeued task restarts from scratch); queued
        tasks are drained.  Orphans are returned in a deterministic
        order (running tasks in dispatch order, then the ready queue)
        for the caller to requeue via :meth:`resubmit`.  Tasks whose
        dependencies resolve after the failure are routed to
        :attr:`orphan_handler`.
        """
        node = self._node(node_id)
        if not node.alive:
            raise SimulationError(f"node {node_id} already failed")
        if len(self.active_node_ids()) <= 1:
            raise SimulationError(
                f"cannot fail node {node_id}: it is the last alive node")
        node.alive = False
        # its pending entries revert to per-task form first, so the
        # dead node's in-flight work is truncated and orphaned with
        # exact per-event semantics (and a group spanning it never fires)
        self._revert(node)
        orphans: List[SimTask] = []
        for task, (token, event) in node.running.items():
            event.cancel()
            node.counter.end_work(self.sim.now, token)
            orphans.append(task)
        if node.running:
            node.busy_marks += 1
        node.running.clear()
        orphans.extend(node.ready)
        node.ready.clear()
        node.free_cores = 0
        # the dead node's NIC is gone: drop its egress reservation so a
        # same-id bookkeeping reuse can never inherit a ghost backlog
        self.network.release_node(node_id)
        return orphans

    def active_node_ids(self) -> List[int]:
        """Ids of the currently alive nodes, ascending."""
        return [n.node_id for n in self.nodes if n.alive]

    def alive_mask(self) -> List[bool]:
        """Per-node liveness flags (index = node id)."""
        return [n.alive for n in self.nodes]

    # -- execution -----------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Drain the event queue; return final virtual time."""
        result = self.sim.run(until=until, max_events=max_events)
        if until is not None:
            self._revert()
        return result

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    # -- accounting -----------------------------------------------------------
    def busy_time(self, node_id: int) -> float:
        """Window busy core-seconds of ``node_id``."""
        node = self._node(node_id)
        if node.pending:
            self._retire(node, self._done_horizon())
        return node.busy_time()

    def poll_busy(self, cursor: BusyCursor) -> List[float]:
        """Per-node window busy times, incrementally (all node ids).

        Semantically ``[self.busy_time(n) for n in range(len(
        self.nodes))]`` — and bit-identical to it: a node is re-read
        only when its :attr:`SimNode.busy_marks` moved past the
        cursor's last-seen mark (or it holds unretired pending entries);
        otherwise nothing has touched its busy counter since the last
        poll, so the cached float *is* what ``busy_time`` would return.
        Nodes that stayed idle the whole window — the common case at
        fleet scale — cost one integer compare instead of a counter
        read per poll.
        """
        nodes = self.nodes
        marks, values = cursor.marks, cursor.values
        cursor._ensure(len(nodes))
        for i, node in enumerate(nodes):
            if node.pending or node.busy_marks != marks[i]:
                values[i] = self.busy_time(i)
                # read back after busy_time: retiring pending entries
                # bumps the mark
                marks[i] = node.busy_marks
        return values[:len(nodes)]

    def rebase_busy_cursor(self, cursor: BusyCursor) -> None:
        """Realign ``cursor`` to the just-reset counters.

        Call immediately after :meth:`reset_counters`: every window is
        exactly ``0.0`` there, so the cursor caches zeros against the
        current marks and the next poll re-reads only nodes that do
        work in the new window.
        """
        nodes = self.nodes
        cursor._ensure(len(nodes))
        for i, node in enumerate(nodes):
            cursor.marks[i] = node.busy_marks
            cursor.values[i] = 0.0

    def reset_counters(self) -> None:
        """Reset every node's busy-time counter.

        Passes the current virtual time so busy intervals that are open
        at the reset (in-flight tasks at a balance poll) are clipped at
        the window boundary instead of leaking their pre-reset span into
        the new window.  Pending entries revert to per-task form first
        so an entry straddling the reset is clipped exactly like an
        in-flight per-event task.
        """
        self._revert()
        self.counters.reset_all(now=self.sim.now)
        # windows changed under every cursor: any poll that skips the
        # rebase fast path must re-read (rebase_busy_cursor avoids the
        # O(nodes) re-read for callers that pair it with the reset)
        for node in self.nodes:
            node.busy_marks += 1

    # -- internals ---------------------------------------------------------
    def _node(self, node_id: int) -> SimNode:
        if not 0 <= node_id < len(self.nodes):
            raise SimulationError(f"unknown node id {node_id}")
        return self.nodes[node_id]

    def _enqueue(self, node: SimNode, task: SimTask) -> None:
        if not node.alive:
            # deps resolved after the node died: reroute, don't run
            if self.orphan_handler is None:
                raise SimulationError(
                    f"task {task.label!r} became ready on failed node "
                    f"{node.node_id} and no orphan handler is set")
            self.orphan_handler(task)
            return
        pending = node.pending
        if pending and pending[3].tasks is None:
            # a per-event task mixing with group entries: revert them so
            # FIFO order and core occupancy are exact.  A run stays: it
            # holds the core and its event re-dispatches the node
            self._revert(node)
        node.ready.append(task)
        self._dispatch(node)

    def _dispatch(self, node: SimNode) -> None:
        if (self.wave_batching and node.group_rate and node.alive
                and node.free_cores == 1 and len(node.ready) >= 2):
            # one-node run fast path: batch the leading run of action-free
            # tasks, cut so no *observed* future resolves late.  A wave
            # resolves its members at the wave's end, so an observed
            # member is only safe when every observer also waits for
            # the wave's final member: a run may end at a member of the
            # single common when_all barrier (the barrier cannot
            # fire before the run's own end), at an unobserved member,
            # or at a multi-observed member (its own true completion
            # time is the wave end).  Futures observed *after* the wave
            # forms trigger a live revert (see Future._wave).
            k = 0
            end = 0
            common = None
            for task in node.ready:
                if task.action is not None or task.work < 0.0:
                    break
                g = task.future._group
                k += 1
                if g is None:
                    if common is None:
                        end = k
                elif common is not None and g is not common:
                    break
                elif g is _MULTI:
                    end = k
                    break
                else:
                    common = g
                    end = k
            if end >= 2:
                self._start_wave(node, end)
        while node.alive and node.free_cores > 0 and node.ready:
            task = node.ready.popleft()
            node.free_cores -= 1
            start = self.sim.now
            duration = node.trace.time_to_complete(task.work, start)
            token = node.counter.begin_work(start)
            # priority 1: completions fire after same-time message deliveries
            event = self.sim.schedule(
                start + duration,
                lambda t=task, n=node: self._complete(n, t),
                priority=1, klass="completion")
            node.running[task] = (token, event)

    def _start_wave(self, node: SimNode, k: int) -> None:
        ready = node.ready
        tasks = [ready.popleft() for _ in range(k)]
        batch = _Batch(lambda: self._finish_run(node, tasks), [node], tasks)
        works = [task.work for task in tasks]
        if k < 32:
            # numpy setup costs more than it saves on short runs
            finish = self._append_entries([node] * k, works, batch)
        else:
            # the queue is empty (the core was free): the run starts now.
            # accumulate adds strictly left to right, bit-identical to
            # the fl(t + fl(work/rate)) chain of _append_entries
            acc = np.empty(k + 1, dtype=np.float64)
            acc[0] = self.sim.now
            np.divide(works, node.group_rate, out=acc[1:])
            times = np.add.accumulate(acc).tolist()
            entries = [batch] * (4 * k)
            entries[0::4] = times[:-1]
            entries[1::4] = times[1:]
            entries[2::4] = works
            node.pending.extend(entries)
            node.tail = finish = times[-1]
        node.free_cores -= 1
        batch.event = self.sim.schedule(
            finish, lambda: self._complete_batch(batch),
            priority=1, klass="wave")
        # a subscriber attaching to a non-final member mid-flight must
        # see the true completion time: arm the live revert trigger
        # (fired from Future._add_callback)
        trigger = (lambda: self._revert(node)
                   if batch.event is not None else None)
        for task in tasks[:-1]:
            task.future._wave = trigger

    def _finish_run(self, node: SimNode, tasks: List[SimTask]) -> None:
        """A run's ``fire``: resolve in task order, free the core, dispatch.

        Clearing ``_wave`` breaks the future -> trigger -> task cycle (a
        trigger met meanwhile is inert: the batch's event is gone).
        """
        node.free_cores += 1
        for task in tasks:
            future = task.future
            future._wave = None
            future._set_value(None)
        self._dispatch(node)

    # -- deferred completions (see _Batch) ---------------------------------
    def _append_entries(self, nodes: Sequence[SimNode],
                        works: Sequence[float], batch: _Batch) -> float:
        """Tail-schedule ``works[i]`` on ``nodes[i]``; return the last finish.

        Each entry starts where its node's previous one finishes (or
        now) and lasts ``work/rate``: the identical
        ``fl(start + fl(work/rate))`` the per-event dispatch computes.
        A node's tail bounds its schedule only while entries are queued
        (a revert hands them to the per-event path and leaves it stale).
        """
        now = self.sim.now
        t_max = now
        for node, work in zip(nodes, works):
            pending = node.pending
            start = node.tail if pending and node.tail > now else now
            node.tail = finish = start + work / node.group_rate
            pending.extend((start, finish, work, batch))
            if finish > t_max:
                t_max = finish
        return t_max

    def _done_horizon(self) -> float:
        """The done rule: a pending entry is done iff ``finish < horizon``.

        Answers "would the per-event path already have completed this
        entry?".  That path completes a task in a priority-1 event at
        its finish, so an entry with ``finish < now`` is done, and one
        with ``finish == now`` only for a reader that runs after
        same-time completions: outside the event loop (a
        ``run(until=...)`` cut) or inside an event of priority above 1.
        Faults (-1), deliveries and timers (0) and completions (1) still
        see it in flight.
        """
        sim = self.sim
        now = sim.now
        return math.nextafter(now, math.inf) if sim._priority > 1 else now

    def _retire(self, node: SimNode, horizon: float,
                owner: Optional[_Batch] = None) -> None:
        """Retire ``node``'s done prefix: entries with ``finish < horizon``.

        Credits busy time and task/work totals exactly as
        :meth:`_complete` does.  With ``owner`` — the batch whose own
        event is running — its entries retire too, with every entry
        queued ahead of them, but not a same-instant successor (per
        event, that one only starts once the owner's task completes).
        Never fires a batch, preserving per-event firing order.
        In-flight entries contribute nothing, like an open
        ``BusyTimeCounter`` interval.
        """
        pending = node.pending
        counter = node.counter
        # sequential float adds into locals: the same sums, in the same
        # order, as per-task ``end_work`` credits
        window, lifetime = counter._window, counter._lifetime
        work_done = node.work_completed
        popleft = pending.popleft
        retired = 0
        while pending:
            finish = pending[1]
            # the owner's event runs at priority 1 (horizon == now):
            # only a same-instant entry can still queue ahead of it
            if (finish >= horizon and pending[3] is not owner
                    and (owner is None or finish > horizon
                         or owner not in islice(pending, 3, None, 4))):
                break
            span = finish - popleft()
            popleft()
            work_done += popleft()
            popleft()
            window += span
            lifetime += span
            retired += 1
        if retired:
            counter._window, counter._lifetime = window, lifetime
            node.work_completed = work_done
            node.tasks_completed += retired
            node.busy_marks += 1

    def _complete_batch(self, batch: _Batch) -> None:
        """The one DES event per batch: retire its entries, then fire."""
        batch.event = None
        horizon = self._done_horizon()
        for node in batch.nodes:
            self._retire(node, horizon, batch)
        batch.fire()

    def _revert(self, node: Optional[SimNode] = None) -> None:
        """Turn unretired pending entries into per-task state.

        Without ``node`` (a ``run(until=...)`` cut, counter reset)
        every node's entries revert.  With ``node`` (its failure, a
        per-event task mixing onto its group entries, a late subscriber
        on its run, ``Future._wave``) only its run does, or, if it
        holds group entries, every node's group entries (a group
        reverts whole).  Done entries retire first; the head of the
        rest (``start <= now``) becomes a ``running`` task with an open
        busy interval and its own completion event, the others return
        to the front of the ready queue.  Group entries become fresh
        tasks that count their group down; a run's entries are its
        members, and its retired members resolve here.  Reverted
        batches' events are cancelled.
        """
        horizon = self._done_horizon()
        groups_only = (node is not None and bool(node.pending)
                       and node.pending[3].tasks is None)
        targets = self.nodes if node is None or groups_only else (node,)
        resolved: List[SimTask] = []
        for target in targets:
            pending = target.pending
            if not pending or (groups_only
                               and pending[3].tasks is not None):
                continue
            self._retire(target, horizon)
            if not pending:
                continue
            start, finish, _work, batch = islice(pending, 4)
            members = batch.tasks
            if members is None:
                tasks = []
                entries = iter(pending)
                for _s, _f, work, group in zip(entries, entries, entries,
                                               entries):
                    if group.event is not None:
                        group.event.cancel()
                        group.event = None
                    # a group reverts all its unretired entries at once,
                    # so this counts exactly its uncompleted tasks
                    group.remaining += 1
                    task = SimTask(target.node_id, work, None, "task")
                    task.future._add_callback(
                        lambda _f, g=group: self._group_task_done(g))
                    tasks.append(task)
                target.free_cores -= 1
            else:
                # a run owns every entry on its node and holds the core
                batch.event.cancel()
                batch.event = None
                for task in members:
                    task.future._wave = None
                done = len(members) - len(pending) // 4
                resolved.extend(members[:done])
                tasks = members[done:]
            pending.clear()
            head = tasks[0]
            token = target.counter.begin_work(start)
            event = self.sim.schedule(
                finish, lambda t=head, n=target: self._complete(n, t),
                priority=1, klass="completion")
            target.running[head] = (token, event)
            target.ready.extendleft(reversed(tasks[1:]))
        for task in resolved:
            task.future._set_value(None)

    def _group_task_done(self, group: _Batch) -> None:
        group.remaining -= 1
        if group.remaining == 0:
            group.fire()

    def _complete(self, node: SimNode, task: SimTask) -> None:
        token, _event = node.running.pop(task)
        node.counter.end_work(self.sim.now, token)
        node.busy_marks += 1
        node.free_cores += 1
        node.tasks_completed += 1
        node.work_completed += task.work
        try:
            result = task.action() if task.action is not None else None
        except BaseException as exc:  # noqa: BLE001 - forwarded to future
            task.future._set_exception(exc)
        else:
            task.future._set_value(result)
        self._dispatch(node)
