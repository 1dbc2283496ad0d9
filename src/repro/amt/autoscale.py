"""Closed-loop autoscaling over the elastic-cluster machinery.

The churn primitives (:meth:`SimCluster.add_node` /
:meth:`~SimCluster.fail_node`, DESIGN.md substitution 4) replay
*scripted* membership changes; this module closes the loop: an
:class:`AutoscaleController` polls the cluster at a fixed virtual-time
interval, reduces what it sees into an :class:`AutoscaleObservation`,
and asks a pluggable :class:`AutoscalePolicy` whether to grow or drain
the fleet (DESIGN.md substitution 6).

The controller owns every actuation invariant so they hold for *any*
policy, however buggy: the fleet never drops below ``min_nodes`` nor
grows past ``max_nodes`` (joins in flight count against the cap),
consecutive actions are separated by ``cooldown``, scale-out lands
after a ``provision_delay`` and ramps through a warm-up window
(:class:`StraggleSpeed` over the cluster's ``default_rate``), and
scale-in *drains* — the chosen node leaves the dispatchable set
immediately but is only retired (via :meth:`SimCluster.fail_node`)
once it has gone completely idle, so no in-flight work is ever lost to
a policy decision.

Everything here is virtual-time pure: polls are ordinary DES events,
so seeded runs are bit-identical across repeats, and a policy that
never fires leaves the simulated schedule untouched except for the
poll events themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .cluster import ConstantSpeed, SimCluster, SimulationError, StraggleSpeed

__all__ = ["AUTOSCALE_PRIORITY", "AutoscaleObservation", "AutoscalePolicy",
           "TargetUtilizationPolicy", "AutoscaleController", "node_seconds"]

#: DES priority for controller events (polls and deferred joins): after
#: same-instant deliveries (0), completions (1) and arrivals (2), so a
#: poll at time t observes everything that happened *through* t — the
#: controller reacts to a completed instant, never races it.
AUTOSCALE_PRIORITY = 3


@dataclass(frozen=True)
class AutoscaleObservation:
    """One poll's view of the world — all a policy gets to see.

    ``utilization`` is the dispatchable fleet's busy core-seconds over
    available core-seconds since the previous poll; the service-level
    signals (``p99_wait``, ``shed_rate``, ``queue_depth``) come from
    the controller's ``metrics`` callback and are zero when none is
    wired.  Fleet counts let a policy reason about headroom without
    touching the cluster: ``nodes`` is the dispatchable count (live
    minus draining), ``pending_joins`` the scale-outs requested but not
    yet landed.
    """

    time: float          #: virtual time of this poll
    interval: float      #: seconds since the previous poll
    nodes: int           #: dispatchable nodes (alive, not draining)
    pending_joins: int   #: scale-outs requested, not yet joined
    draining: int        #: nodes draining toward retirement
    utilization: float   #: busy/available core-seconds over ``interval``
    p99_wait: float      #: p99 queue wait of jobs started this interval
    shed_rate: float     #: jobs shed per second this interval
    queue_depth: int     #: jobs queued (admitted, not started) now
    min_nodes: int       #: controller floor (policy may not see below)
    max_nodes: int       #: controller ceiling


class AutoscalePolicy:
    """Protocol: observe → decide.

    ``decide`` returns ``+1`` to request one more node, ``-1`` to drain
    one, ``0`` to hold.  The controller clamps whatever comes back to
    the ``[min_nodes, max_nodes]`` band and its cooldown, so a policy
    only expresses *desire*, never actuates.  Policies may keep state
    (hysteresis counters); they must not touch wall clocks or global
    RNGs, or seeded runs stop being reproducible.
    """

    def decide(self, obs: AutoscaleObservation) -> int:  # pragma: no cover
        raise NotImplementedError


class TargetUtilizationPolicy(AutoscalePolicy):
    """Threshold policy with hysteresis — the reference implementation.

    A poll is *hot* when sustained pressure shows on any signal:
    utilization at/above ``scale_out_utilization``, p99 wait above
    ``max_p99_wait``, shed rate above ``max_shed_rate``, or queue depth
    above ``max_queue_depth``.  It is *cold* only when utilization sits
    at/below ``scale_in_utilization`` with an empty queue and no other
    signal breaching.  ``breach_polls`` consecutive hot polls request a
    scale-out; ``low_polls`` consecutive cold polls request a scale-in;
    anything mixed resets both streaks, and an emitted request restarts
    its streak from zero — so one noisy interval never flaps the fleet.

    The defaults never scale on the service signals (``inf``
    thresholds); callers opt in per signal.  A policy built with
    ``scale_out_utilization=math.inf`` and ``scale_in_utilization``
    negative can never fire at all — the no-op policy the equivalence
    tests pin against a run with autoscaling disabled.
    """

    def __init__(self, scale_out_utilization: float = 0.85,
                 scale_in_utilization: float = 0.25,
                 max_p99_wait: float = math.inf,
                 max_shed_rate: float = math.inf,
                 max_queue_depth: float = math.inf,
                 breach_polls: int = 2, low_polls: int = 4) -> None:
        if scale_in_utilization >= scale_out_utilization:
            raise ValueError(
                f"scale_in_utilization ({scale_in_utilization}) must be "
                f"below scale_out_utilization ({scale_out_utilization})")
        if breach_polls < 1 or low_polls < 1:
            raise ValueError("breach_polls and low_polls must be >= 1")
        self.scale_out_utilization = scale_out_utilization
        self.scale_in_utilization = scale_in_utilization
        self.max_p99_wait = max_p99_wait
        self.max_shed_rate = max_shed_rate
        self.max_queue_depth = max_queue_depth
        self.breach_polls = breach_polls
        self.low_polls = low_polls
        self._hot_streak = 0
        self._cold_streak = 0

    def decide(self, obs: AutoscaleObservation) -> int:
        hot = (obs.utilization >= self.scale_out_utilization
               or obs.p99_wait > self.max_p99_wait
               or obs.shed_rate > self.max_shed_rate
               or obs.queue_depth > self.max_queue_depth)
        cold = (not hot and obs.queue_depth == 0
                and obs.utilization <= self.scale_in_utilization)
        if hot:
            self._hot_streak += 1
            self._cold_streak = 0
        elif cold:
            self._cold_streak += 1
            self._hot_streak = 0
        else:
            self._hot_streak = 0
            self._cold_streak = 0
        if self._hot_streak >= self.breach_polls:
            self._hot_streak = 0
            return 1
        if self._cold_streak >= self.low_polls:
            self._cold_streak = 0
            return -1
        return 0


class AutoscaleController:
    """Polls the cluster, consults a policy, drives the churn machinery.

    ``metrics`` (optional) is called once per poll as
    ``metrics(now, interval)`` and returns service-level signals
    (``p99_wait`` / ``shed_rate`` / ``queue_depth``) for the
    observation — how the service manager feeds telemetry in without
    this module importing the service layer.  ``on_membership_change``
    is called with the new dispatchable id list whenever it changes
    (drain start, join, and — for completeness — retirement), which is
    where the manager rebuilds its dispatch templates.

    Every decision and transition lands in :attr:`events` as a plain
    dict (``scale_out`` request, ``join``, ``drain``, ``retire``),
    JSON-ready for ``RunRecord.scale_events``.
    """

    def __init__(self, cluster: SimCluster, policy: AutoscalePolicy, *,
                 poll_interval: float, min_nodes: int, max_nodes: int,
                 cooldown: float = 0.0, provision_delay: float = 0.0,
                 warmup: float = 0.0, warmup_factor: float = 1.0,
                 cores_per_node: int = 1,
                 metrics: Optional[
                     Callable[[float, float], Dict[str, float]]] = None,
                 on_membership_change: Optional[
                     Callable[[List[int]], None]] = None) -> None:
        if poll_interval <= 0:
            raise SimulationError(
                f"poll_interval must be > 0, got {poll_interval}")
        if not 1 <= min_nodes <= max_nodes:
            raise SimulationError(
                f"need 1 <= min_nodes <= max_nodes, got "
                f"[{min_nodes}, {max_nodes}]")
        if cooldown < 0 or provision_delay < 0 or warmup < 0:
            raise SimulationError(
                "cooldown, provision_delay and warmup must be >= 0")
        if not 0 < warmup_factor <= 1:
            raise SimulationError(
                f"warmup_factor must be in (0, 1], got {warmup_factor}")
        live = len(cluster.active_node_ids())
        if live < min_nodes:
            raise SimulationError(
                f"cluster starts with {live} nodes, below min_nodes="
                f"{min_nodes}")
        self.cluster = cluster
        self.policy = policy
        self.poll_interval = poll_interval
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.cooldown = cooldown
        self.provision_delay = provision_delay
        self.warmup = warmup
        self.warmup_factor = warmup_factor
        self.cores_per_node = cores_per_node
        self._metrics = metrics
        self._on_membership_change = on_membership_change
        #: decision/transition log, in virtual-time order
        self.events: List[Dict[str, Any]] = []
        self._draining: List[int] = []
        self._pending_joins = 0
        self._busy_seen: Dict[int, float] = {}
        self._last_deltas: Dict[int, float] = {}
        self._last_poll = cluster.sim.now
        self._last_action = -math.inf
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Schedule the first poll one interval from now."""
        if self._started:
            raise SimulationError("controller already started")
        self._started = True
        self._last_poll = self.cluster.sim.now
        self.cluster.sim.schedule(
            self.cluster.sim.now + self.poll_interval, self._poll,
            priority=AUTOSCALE_PRIORITY, klass="autoscale")

    def dispatchable(self) -> List[int]:
        """Live node ids minus those draining, ascending — the set new
        work may target."""
        draining = self._draining
        return [nid for nid in self.cluster.active_node_ids()
                if nid not in draining]

    # -- the poll loop -----------------------------------------------------
    def _poll(self) -> None:
        sim = self.cluster.sim
        now = sim.now
        self._retire_idle(now)
        obs = self._observe(now)
        decision = self.policy.decide(obs)
        if decision > 0 and now - self._last_action >= self.cooldown:
            if obs.nodes + self._pending_joins + len(self._draining) \
                    < self.max_nodes:
                self._pending_joins += 1
                self._last_action = now
                self._record(now, "scale_out", None, obs)
                sim.schedule(now + self.provision_delay, self._join,
                             priority=AUTOSCALE_PRIORITY, klass="autoscale")
        elif decision < 0 and now - self._last_action >= self.cooldown:
            if obs.nodes > self.min_nodes and not self._pending_joins:
                nid = self._idlest()
                if nid is not None:
                    self._draining.append(nid)
                    self._last_action = now
                    self._record(now, "drain", nid, obs)
                    self._membership_changed()
        sim.schedule(now + self.poll_interval, self._poll,
                     priority=AUTOSCALE_PRIORITY, klass="autoscale")

    def _observe(self, now: float) -> AutoscaleObservation:
        ids = self.dispatchable()
        dt = now - self._last_poll
        self._last_poll = now
        busy = 0.0
        cores = 0
        deltas: Dict[int, float] = {}
        seen = self._busy_seen
        for nid in ids:
            b = self.cluster.busy_time(nid)
            d = b - seen.get(nid, 0.0)
            seen[nid] = b
            deltas[nid] = d
            busy += d
            cores += self.cluster.nodes[nid].cores
        self._last_deltas = deltas
        util = busy / (dt * cores) if dt > 0 and cores else 0.0
        extra = self._metrics(now, dt) if self._metrics is not None else {}
        return AutoscaleObservation(
            time=now, interval=dt, nodes=len(ids),
            pending_joins=self._pending_joins,
            draining=len(self._draining), utilization=util,
            p99_wait=float(extra.get("p99_wait", 0.0)),
            shed_rate=float(extra.get("shed_rate", 0.0)),
            queue_depth=int(extra.get("queue_depth", 0)),
            min_nodes=self.min_nodes, max_nodes=self.max_nodes)

    def _idlest(self) -> Optional[int]:
        """Dispatchable node with the smallest busy delta last interval
        (ties → lowest id) — the cheapest node to take out of rotation."""
        ids = self.dispatchable()
        if not ids:
            return None
        deltas = self._last_deltas
        return min(ids, key=lambda nid: (deltas.get(nid, 0.0), nid))

    # -- actuation ---------------------------------------------------------
    def _join(self) -> None:
        now = self.cluster.sim.now
        self._pending_joins -= 1
        rate = self.cluster.default_rate
        if self.warmup > 0 and self.warmup_factor < 1.0:
            trace = StraggleSpeed(
                ConstantSpeed(rate),
                [(now, now + self.warmup, self.warmup_factor)])
        else:
            trace = ConstantSpeed(rate)
        nid = self.cluster.add_node(cores=self.cores_per_node, trace=trace)
        self._busy_seen[nid] = 0.0
        self._record(now, "join", nid, None)
        self._membership_changed()

    def _retire_idle(self, now: float) -> None:
        for nid in list(self._draining):
            # retire any completed pending prefix so "idle" is exact
            self.cluster.busy_time(nid)
            node = self.cluster.nodes[nid]
            if node.running or node.ready or node.pending:
                continue
            self._draining.remove(nid)
            orphans = self.cluster.fail_node(nid)
            if orphans:  # idle by the check above; belt and braces
                targets = self.dispatchable()
                for k, task in enumerate(orphans):
                    self.cluster.resubmit(task, targets[k % len(targets)])
            self._record(now, "retire", nid, None,
                         tasks_requeued=len(orphans))
            self._membership_changed()

    # -- bookkeeping -------------------------------------------------------
    def _membership_changed(self) -> None:
        if self._on_membership_change is not None:
            self._on_membership_change(self.dispatchable())

    def _record(self, t: float, action: str, node: Optional[int],
                obs: Optional[AutoscaleObservation], **extra: Any) -> None:
        row: Dict[str, Any] = {"t": t, "action": action, "node": node,
                               "nodes": len(self.dispatchable())}
        if obs is not None:
            row["utilization"] = obs.utilization
            row["p99_wait"] = obs.p99_wait
            row["shed_rate"] = obs.shed_rate
            row["queue_depth"] = obs.queue_depth
        row.update(extra)
        self.events.append(row)


def node_seconds(scale_events: List[Dict[str, Any]], initial_nodes: int,
                 horizon: float) -> float:
    """Provisioned node-seconds over a run — the autoscaler's cost axis.

    Billing follows cloud convention: a node is paid for from the
    ``scale_out`` *request* (you rent the instance while it boots, and
    a request still in provisioning at the horizon was still paid for),
    through to its ``retire`` event or the horizon.  Draining nodes
    bill until retired — they are still rented while finishing work.
    Static fleets (empty event list) cost ``initial_nodes * horizon``.
    """
    total = initial_nodes * horizon
    for e in scale_events:
        if e["action"] == "scale_out":
            total += horizon - e["t"]
        elif e["action"] == "retire":
            total -= horizon - e["t"]
    return total
