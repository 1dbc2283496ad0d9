"""Deterministic cluster-churn schedules and recovery telemetry.

Real AMT deployments do not run on a fixed node set: nodes crash, new
nodes are provisioned mid-run, and individual nodes straggle while a
co-located job hammers them.  This module is the *data* side of the
elastic-cluster substitution (DESIGN.md substitution 4): a
:class:`FaultSchedule` is a statically validated list of
:class:`ChurnEvent` entries — node failures, node joins, transient
straggle windows — pinned to **virtual** times, so fault injection is
exactly as deterministic as the rest of the simulated schedule
(bit-identical runs, serial or process-parallel sweeps).

The runtime halves live elsewhere: :class:`repro.amt.cluster.SimCluster`
changes its active-node set mid-simulation (``fail_node``/``add_node``),
and :class:`repro.solver.distributed.DistributedSolver` requeues the
failed node's in-flight tasks with a recovery penalty and evacuates its
SDs through the active balancing strategy.  :class:`RecoveryEvent` is
the per-fault telemetry record those layers emit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..codec import Codec

__all__ = ["ChurnEvent", "FaultSchedule", "RecoveryEvent",
           "DEFAULT_RECOVERY_PENALTY"]

#: Extra work fraction charged to tasks requeued off a failed node:
#: re-fetching SD state from the checkpoint store and re-entering the
#: scheduler is not free.  0.25 means a requeued task costs 1.25x.
DEFAULT_RECOVERY_PENALTY = 0.25


@dataclass(frozen=True)
class ChurnEvent(Codec):
    """One scheduled membership/capacity change, in virtual time.

    Kinds
    -----
    ``fail``
        ``node`` leaves the cluster permanently at ``time``: its queued
        and in-flight tasks are orphaned (the solver requeues them with
        a recovery penalty) and its SDs must be evacuated.
    ``join``
        A new node enters at ``time`` with ``cores`` cores and a
        constant ``rate`` (0 means the solver default).  Joined node ids
        are assigned sequentially after the initial nodes; ``node`` must
        equal that assigned id so schedules are explicit about who is
        who (later events may target the joiner).
    ``straggle``
        ``node`` runs at ``factor`` times its normal rate during
        ``[time, stop)`` — a transient straggler, composed exactly into
        the node's speed trace (no sampling, schedules stay
        deterministic).
    """

    KINDS = ("fail", "join", "straggle")

    kind: str
    time: float
    node: int
    cores: int = 1
    rate: float = 0.0
    stop: float = 0.0
    factor: float = 0.25

    def __post_init__(self) -> None:
        def _set(name: str, value: Any) -> None:
            object.__setattr__(self, name, value)

        if self.kind not in self.KINDS:
            raise ValueError(f"unknown churn event kind {self.kind!r}; "
                             f"expected one of {self.KINDS}")
        _set("time", float(self.time))
        _set("node", int(self.node))
        _set("cores", int(self.cores))
        _set("rate", float(self.rate))
        _set("stop", float(self.stop))
        _set("factor", float(self.factor))
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.node < 0:
            raise ValueError(f"event node must be >= 0, got {self.node}")
        if self.kind == "join":
            if self.cores < 1:
                raise ValueError(f"join cores must be >= 1, got {self.cores}")
            if self.rate < 0:
                raise ValueError(f"join rate must be >= 0, got {self.rate}")
        if self.kind == "straggle":
            if not self.stop > self.time:
                raise ValueError(
                    f"straggle window needs stop > time, got "
                    f"[{self.time}, {self.stop})")
            if not 0 < self.factor <= 1:
                raise ValueError(
                    f"straggle factor must be in (0, 1], got {self.factor}")


@dataclass(frozen=True)
class FaultSchedule(Codec):
    """A validated churn schedule bound to an initial cluster size.

    The whole schedule is known up front (fault injection, not fault
    *prediction*), so membership evolution is checked statically:

    * ``fail``/``straggle`` may only target nodes that exist — an
      initial node, or a joiner whose join time is strictly earlier;
    * a node fails at most once and is never targeted after failing;
    * join ids are sequential (``initial_nodes``, ``initial_nodes + 1``,
      …) in event-time order;
    * a node's straggle windows must not overlap (two co-located jobs
      are expressed as one window with a smaller factor);
    * at least one node remains alive at every instant.

    Events are stored sorted by ``(time, sequence-of-kind)``; two events
    at the same instant fire in the stored order, which the sort makes
    deterministic.
    """

    initial_nodes: int
    events: Tuple[ChurnEvent, ...] = ()
    recovery_penalty: float = DEFAULT_RECOVERY_PENALTY

    def __post_init__(self) -> None:
        def _set(name: str, value: Any) -> None:
            object.__setattr__(self, name, value)

        _set("initial_nodes", int(self.initial_nodes))
        if self.initial_nodes < 1:
            raise ValueError(
                f"initial_nodes must be >= 1, got {self.initial_nodes}")
        # stable, fully deterministic order: time, then kind rank
        # (joins before fails before straggles at equal times — a
        # same-instant join+fail pair leaves the cluster non-empty),
        # then declaration order via the original index
        rank = {"join": 0, "fail": 1, "straggle": 2}
        events = tuple(sorted(
            self.events, key=lambda e: (e.time, rank[e.kind])))
        _set("events", events)
        _set("recovery_penalty", float(self.recovery_penalty))
        if self.recovery_penalty < 0:
            raise ValueError(
                f"recovery_penalty must be >= 0, got {self.recovery_penalty}")
        self._check_membership()

    # -- static membership validation -----------------------------------
    def _check_membership(self) -> None:
        known = self.initial_nodes  # ids [0, known) exist
        joined_at: Dict[int, float] = {}
        failed: set = set()
        straggle_end: Dict[int, float] = {}
        alive = self.initial_nodes
        for e in self.events:
            if e.kind == "join":
                if e.node != known:
                    raise ValueError(
                        f"join ids must be sequential: expected node "
                        f"{known}, got {e.node} at t={e.time}")
                joined_at[e.node] = e.time
                known += 1
                alive += 1
                continue
            if e.node >= known:
                raise ValueError(
                    f"{e.kind} targets node {e.node} before it exists "
                    f"(known nodes: {known}) at t={e.time}")
            if e.node in joined_at and e.time <= joined_at[e.node]:
                raise ValueError(
                    f"{e.kind} targets joiner {e.node} at t={e.time}, "
                    f"not after its join at t={joined_at[e.node]}")
            if e.node in failed:
                raise ValueError(
                    f"{e.kind} targets node {e.node} after it failed")
            if e.kind == "fail":
                failed.add(e.node)
                alive -= 1
                if alive < 1:
                    raise ValueError(
                        f"failing node {e.node} at t={e.time} would leave "
                        f"no alive nodes")
            if e.kind == "straggle":
                if e.time < straggle_end.get(e.node, 0.0):
                    raise ValueError(
                        f"straggle windows on node {e.node} overlap at "
                        f"t={e.time}; express co-located jobs as one "
                        f"window with a smaller factor")
                straggle_end[e.node] = e.stop

    # -- queries ---------------------------------------------------------
    @property
    def max_nodes(self) -> int:
        """Initial nodes plus every join: the final node-id space."""
        return self.initial_nodes + sum(
            1 for e in self.events if e.kind == "join")

    def straggles_of(self, node: int) -> List[ChurnEvent]:
        """Straggle windows targeting ``node``, in time order."""
        return [e for e in self.events
                if e.kind == "straggle" and e.node == node]


@dataclass(frozen=True)
class RecoveryEvent(Codec):
    """One fault handled by the solver, as the run telemetry records it.

    ``fail`` events carry the evacuation/requeue accounting:
    ``sds_evacuated`` SDs left the dead node, ``tasks_requeued``
    orphaned tasks were resubmitted (each at ``1 + recovery_penalty``
    times its work), and ``recovery_bytes`` of SD state were re-fetched
    from the checkpoint store on the lead surviving node.  ``join``
    events record the node entering; its first SDs arrive with the next
    balance step and are tagged on that step's
    :class:`repro.core.strategies.BalanceEvent` instead.  ``step`` is
    the timestep the event interrupted — it anchors the event against
    the per-step ownership timeline (``parts_events``).
    """

    time: float
    kind: str
    node: int
    step: int = 0
    sds_evacuated: int = 0
    tasks_requeued: int = 0
    recovery_bytes: int = 0
