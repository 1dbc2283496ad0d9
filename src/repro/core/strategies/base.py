"""The balancing-strategy interface and its shared machinery.

A :class:`BalanceStrategy` answers one question: given the current SD
ownership and the busy-time counters of the measurement window, which
SDs should move where?  Every strategy shares the paper's measurement
preamble (eqs. 8-10: node power from busy time, expected shares, load
imbalance, integer targets) and the transfer mechanics of
:mod:`repro.core.transfer`; they differ only in *how* the residual
imbalance is routed:

* ``tree`` — the paper's Algorithm 1 (dependency-tree subtree flows);
* ``diffusion`` — first-order neighbor-pairwise diffusive exchange;
* ``greedy`` — repeated max->min donor/receiver settlement;
* ``repartition`` — re-run the multilevel partitioner and remap labels.

All strategies preserve the balancing invariants — every SD stays
owned by a valid node, SDs are moved (never created or relabeled
wholesale), and the step is a no-op below the trigger threshold — and
are deterministic: identical inputs give identical plans, which is
what keeps the simulated schedules bit-identical across sweep workers.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...codec import Codec
from ...mesh.decomposition import check_parts
from ...mesh.subdomain import SubdomainGrid
from ..power import compute_power, expected_sds, imbalance_ratio, integer_targets
from ..transfer import TransferPlan, select_transfers
from ..tree import node_adjacency

__all__ = ["BalanceResult", "BalanceEvent", "BalanceStrategy",
           "is_uniform_work", "evacuate_assignments"]


def is_uniform_work(work_per_sd: Optional[Sequence[float]]) -> bool:
    """Whether per-SD work weights are effectively uniform.

    ``None`` (no weights), an empty sequence, a scalar, and a
    single-entry vector are all uniform by definition; otherwise every
    entry must equal the first.  Uniform work lets the balancer snap
    expected shares to integer SD targets (largest-remainder
    apportionment), which is what stops Algorithm 1 oscillating between
    configurations that are equally close to the fractional ideal.
    """
    if work_per_sd is None:
        return True
    work = np.atleast_1d(np.asarray(work_per_sd, dtype=np.float64))
    if work.size <= 1:
        return True
    return bool(np.allclose(work, work.flat[0]))


def evacuate_assignments(sd_grid: SubdomainGrid, parts: np.ndarray,
                         active: np.ndarray,
                         sd_work: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, List[TransferPlan]]:
    """Reassign every SD owned by an inactive node to an active one.

    The mechanical half of failure recovery, shared by every balancing
    strategy (and used directly by the solver when balancing is
    disabled — evacuation is a *correctness* requirement, rebalancing a
    performance choice).  Stranded SDs are absorbed frontier-first:
    repeatedly hand the stranded SD that touches the least-loaded
    active region to that region's owner (ties by node id, then SD id),
    so the dead node's area is split between its live neighbors instead
    of dumped wholesale on one of them.  If no stranded SD touches any
    active region (every incumbent died at once), the lowest-id
    stranded SD bootstraps onto the least-loaded active node and the
    frontier sweep continues from there.

    Returns ``(new_parts, plans)``; ``parts`` itself is not modified.
    Deterministic by construction.
    """
    parts = np.array(parts, dtype=np.int64, copy=True)
    active = np.asarray(active, dtype=bool)
    if sd_work is None:
        sd_work = np.ones(len(parts))
    else:
        sd_work = np.asarray(sd_work, dtype=np.float64)
    if not active.any():
        raise ValueError("evacuation needs at least one active node")
    load = np.zeros(len(active))
    owned_by_active = active[parts]
    np.add.at(load, parts[owned_by_active], sd_work[owned_by_active])
    active_ids = [int(n) for n in np.nonzero(active)[0]]
    live = np.append(active, False)  # index -1: past the grid edge
    plans: List[TransferPlan] = []
    while True:
        stranded = np.nonzero(~active[parts])[0]
        if len(stranded) == 0:
            break
        # every (stranded SD, live neighbour owner) candidate; the best
        # is the least-loaded owner, ties by owner id, then SD id
        owners = sd_grid.face_owners(parts)[stranded]
        hit = live[owners]
        if hit.any():
            cand_dst = owners[hit]
            cand_sd = np.broadcast_to(stranded[:, None], owners.shape)[hit]
            i = np.lexsort((cand_sd, cand_dst, load[cand_dst]))[0]
            dst, sd = int(cand_dst[i]), int(cand_sd[i])
        else:
            dst = min(active_ids, key=lambda n: (float(load[n]), n))
            sd = int(stranded[0])
        plans.append(TransferPlan(int(parts[sd]), dst, 1, [sd]))
        parts[sd] = dst
        load[dst] += sd_work[sd]
    return parts, plans


@dataclass(frozen=True, eq=False)
class BalanceResult:
    """Diagnostics of one balancing step (immutable).

    ``imbalance_before``/``imbalance_after`` are eq. (9) per node —
    ``expected - load`` in work units — evaluated at decision time and
    after the planned transfers; ``imbalance_after`` is derived in
    ``__post_init__`` from the ownership delta (the expected shares are
    fixed within a step, so only the realized loads change).

    ``imbalance_ratio_before``/``imbalance_ratio_after`` are the scalar
    max/mean indicators the telemetry records: the measured busy-time
    ratio at decision time, and the ratio *predicted* for the new
    ownership from the measured node powers.
    """

    strategy: str
    parts_before: np.ndarray
    parts_after: np.ndarray
    imbalance_before: np.ndarray
    plans: Tuple[TransferPlan, ...]
    triggered: bool
    imbalance_ratio_before: float
    imbalance_ratio_after: float
    #: ``True`` when this step reacted to a topology change — it
    #: evacuated a failed node's SDs and/or seeded a fresh joiner —
    #: rather than to ordinary load drift
    recovery: bool = False
    sd_work: InitVar[Optional[np.ndarray]] = None
    imbalance_after: np.ndarray = field(init=False)

    def __post_init__(self, sd_work: Optional[np.ndarray]) -> None:
        def _freeze(name: str, arr, dtype) -> np.ndarray:
            arr = np.array(arr, dtype=dtype, copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            return arr

        before = _freeze("parts_before", self.parts_before, np.int64)
        after = _freeze("parts_after", self.parts_after, np.int64)
        imb = _freeze("imbalance_before", self.imbalance_before, np.float64)
        object.__setattr__(self, "plans", tuple(self.plans))
        if len(before) != len(after):
            raise ValueError(
                f"ownership length changed: {len(before)} -> {len(after)}")
        work = (np.ones(len(before)) if sd_work is None
                else np.asarray(sd_work, dtype=np.float64))
        delta = np.zeros(len(imb))
        moved = np.nonzero(before != after)[0]
        np.add.at(delta, after[moved], work[moved])
        np.add.at(delta, before[moved], -work[moved])
        _freeze("imbalance_after", imb - delta, np.float64)

    @property
    def sds_moved(self) -> int:
        """Total SDs that changed owner."""
        return int(np.count_nonzero(self.parts_before != self.parts_after))

    def __repr__(self) -> str:
        # stable (value-only, no addresses) so logs diff cleanly
        return (f"BalanceResult(strategy={self.strategy!r}, "
                f"triggered={self.triggered}, sds_moved={self.sds_moved}, "
                f"imbalance_ratio={self.imbalance_ratio_before:.4f}"
                f"->{self.imbalance_ratio_after:.4f})")


@dataclass(frozen=True)
class BalanceEvent(Codec):
    """One balancer invocation as the run telemetry records it.

    Emitted every time the policy fires (including no-op decisions, so
    the migration-cost accounting shows *when* the balancer looked, not
    just when it moved).  ``imbalance_before`` is the measured max/mean
    busy-time ratio at decision time; ``imbalance_after`` the ratio
    predicted for the new ownership from the measured node powers.
    """

    step: int
    strategy: str
    sds_moved: int
    migration_bytes: int
    imbalance_before: float
    imbalance_after: float
    #: recovery-tagged: the invocation handled a topology change
    #: (evacuation after a failure, or absorption of a joiner) — kept
    #: defaulted so pre-churn event dicts still round-trip
    recovery: bool = False


class _StepContext:
    """Everything the preamble measured, handed to ``_rebalance``.

    ``active`` is ``None`` for the fixed-membership contract, or a
    boolean mask over node ids; inactive nodes own no SDs by the time
    ``_rebalance`` runs (the shared preamble evacuated them), have
    ``expected``/``residual`` pinned to zero, and must never receive
    SDs.
    """

    __slots__ = ("parts", "num_nodes", "busy", "sd_work",
                 "node_load", "power", "expected", "imbalance", "residual",
                 "mean_sd_work", "half_sd", "uniform", "active")

    def __init__(self, **kw: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, kw[name])

    def active_ids(self) -> np.ndarray:
        """Ids of the nodes allowed to own SDs, ascending."""
        if self.active is None:
            return np.arange(self.num_nodes)
        return np.nonzero(self.active)[0]


class BalanceStrategy:
    """Base class: the measurement preamble all strategies share.

    Parameters
    ----------
    sd_grid:
        SD geometry (adjacency and transfer selection).
    trigger_threshold:
        Minimum ``max |target - current|`` (in average-SD work units)
        required to act; below it the step is a no-op.
    preserve_connectivity:
        Forwarded to the transfer policy.
    """

    #: Registry name, set by :func:`repro.core.strategies.registry
    #: .register_strategy`.
    name: str = "?"

    def __init__(self, sd_grid: SubdomainGrid,
                 trigger_threshold: float = 1.0,
                 preserve_connectivity: bool = True) -> None:
        self.sd_grid = sd_grid
        self.trigger_threshold = trigger_threshold
        self.preserve_connectivity = preserve_connectivity

    # -- the shared driver -------------------------------------------------
    def balance_step(self, parts: Sequence[int], num_nodes: int,
                     busy_times: Sequence[float],
                     work_per_sd: Optional[Sequence[float]] = None,
                     active: Optional[Sequence[bool]] = None) -> BalanceResult:
        """Measure (eqs. 8-10), check the trigger, delegate to the strategy.

        Parameters
        ----------
        parts:
            Current SD ownership (node id per SD).
        num_nodes:
            Cluster size.
        busy_times:
            Per-node busy time since the last counter reset.
        work_per_sd:
            Optional per-SD work weights; when provided, node power and
            shares are computed in work units so heterogeneous SDs
            balance by actual load.
        active:
            Optional per-node liveness mask (elastic clusters, DESIGN.md
            substitution 4).  Inactive nodes are evacuated first (every
            strategy shares that mechanical step — SDs *must* leave a
            dead node), get a zero expected share, and never receive
            SDs; active nodes that own nothing (fresh joiners) are
            seeded with one frontier SD so adjacency-based routing can
            reach them.  ``None`` — and a mask with every node active
            and owning SDs — reproduce the fixed-membership behavior
            bit for bit.  A step that evacuated or seeded is tagged
            ``recovery=True`` and fires regardless of the threshold.
        """
        parts = check_parts(parts, self.sd_grid.num_subdomains, num_nodes)
        busy = np.asarray(busy_times, dtype=np.float64)
        if len(busy) != num_nodes:
            raise ValueError(f"need {num_nodes} busy times, got {len(busy)}")
        if active is not None:
            active = np.asarray(active, dtype=bool)
            if len(active) != num_nodes:
                raise ValueError(
                    f"need {num_nodes} active flags, got {len(active)}")
            if not active.any():
                raise ValueError("need at least one active node")

        uniform = is_uniform_work(work_per_sd)
        if work_per_sd is None:
            sd_work = np.ones(self.sd_grid.num_subdomains)
        else:
            sd_work = np.asarray(work_per_sd, dtype=np.float64)
            if len(sd_work) != self.sd_grid.num_subdomains:
                raise ValueError("work_per_sd must have one entry per SD")

        # recovery preamble: a dead node's SDs must leave *now*
        pre_plans: List[TransferPlan] = []
        work_parts = parts
        if active is not None and not active[parts].all():
            work_parts, pre_plans = evacuate_assignments(
                self.sd_grid, parts, active, sd_work)

        # Algorithm 1 lines 2-12: loads, power, expected, imbalance
        node_load = np.zeros(num_nodes)
        np.add.at(node_load, work_parts, sd_work)
        total = float(node_load.sum())
        mean_sd_work = total / max(1, self.sd_grid.num_subdomains)
        if active is None:
            power = compute_power(node_load, busy)
            expected = expected_sds(total, power)
            ratio_before = imbalance_ratio(busy)
        else:
            # eq. (8) relates busy time to the load that *produced* it:
            # measure power from the pre-evacuation ownership, and over
            # the live cluster only — a dead node's stale busy time
            # must not pollute the fallback power a measurement-less
            # joiner is assigned
            load_measured = np.zeros(num_nodes)
            np.add.at(load_measured, parts, sd_work)
            power = np.ones(num_nodes)
            power[active] = compute_power(load_measured[active],
                                          busy[active])
            expected = np.zeros(num_nodes)
            expected[active] = expected_sds(total, power[active])
            ratio_before = imbalance_ratio(busy[active])
        imbalance = expected - node_load

        # joiners: an active node owning nothing is unreachable by
        # frontier transfers — seed it with one well-placed SD
        if active is not None:
            if work_parts is parts:
                work_parts = parts.copy()
            seed_plans = self._seed_empty_nodes(
                work_parts, node_load, expected, sd_work, 0.5 * mean_sd_work)
            if seed_plans:
                pre_plans.extend(seed_plans)
                imbalance = expected - node_load  # loads changed in place

        if uniform:
            # integer targets (in SDs scaled by the common work factor),
            # apportioned over the nodes allowed to own SDs so the sum
            # is conserved even when the active set shrinks or grows
            scale = mean_sd_work if mean_sd_work > 0 else 1.0
            residual = np.zeros(num_nodes)
            live = slice(None) if active is None else active
            # every live node within one SD of its share already holds
            # its floor or ceil: that is a valid rounding, and moving
            # SDs would only swap it for another one
            if not np.all(np.abs(imbalance[live]) < scale):
                targets = integer_targets(expected[live] / scale) * scale
                residual[live] = targets - node_load[live]
        else:
            residual = imbalance.copy()
            if active is not None:
                residual[~active] = 0.0

        recovery = bool(pre_plans)
        threshold = self.trigger_threshold * mean_sd_work
        if not recovery and np.abs(residual).max() < max(threshold, 1e-12):
            return BalanceResult(
                strategy=self.name, parts_before=parts,
                parts_after=parts.copy(), imbalance_before=imbalance,
                plans=(), triggered=False,
                imbalance_ratio_before=ratio_before,
                imbalance_ratio_after=ratio_before, sd_work=sd_work)

        ctx = _StepContext(parts=work_parts, num_nodes=num_nodes,
                           busy=busy, sd_work=sd_work, node_load=node_load,
                           power=power, expected=expected,
                           imbalance=imbalance, residual=residual,
                           mean_sd_work=mean_sd_work,
                           half_sd=0.5 * mean_sd_work, uniform=uniform,
                           active=active)
        new_parts, plans = self._rebalance(ctx)
        load_after = np.zeros(num_nodes)
        np.add.at(load_after, new_parts, sd_work)
        if active is None:
            ratio_after = imbalance_ratio(load_after / power)
        else:
            ratio_after = imbalance_ratio(
                load_after[active] / power[active])
        return BalanceResult(
            strategy=self.name, parts_before=parts, parts_after=new_parts,
            imbalance_before=imbalance, plans=tuple(pre_plans) + tuple(plans),
            triggered=True, recovery=recovery,
            imbalance_ratio_before=ratio_before,
            imbalance_ratio_after=ratio_after,
            sd_work=sd_work)

    def _seed_empty_nodes(self, parts: np.ndarray, node_load: np.ndarray,
                          expected: np.ndarray, sd_work: np.ndarray,
                          half_sd: float) -> List[TransferPlan]:
        """Give each SD-less active node one SD so transfers can reach it.

        A joiner owns nothing, so it has no frontier and no node
        adjacency — every routing strategy would starve it forever.
        Each deserving node (expected share above half an average SD)
        is seeded with one SD from the currently most-loaded donor: the
        donor SD farthest from the donor's own centroid that keeps the
        donor connected (a corner of its region), ties by SD id.
        ``parts`` and ``node_load`` are updated in place.
        """
        from ..transfer import _donor_stays_connected, _sp_centroid
        plans: List[TransferPlan] = []
        counts = np.bincount(parts, minlength=len(node_load))
        for n in np.nonzero(expected)[0]:
            n = int(n)
            if counts[n] > 0 or expected[n] <= half_sd:
                continue
            donors = [d for d in range(len(counts)) if counts[d] >= 2]
            if not donors:
                break
            donor = max(donors, key=lambda d: (node_load[d], -d))
            centroid = _sp_centroid(self.sd_grid, parts, donor)
            best = None  # (-distance, sd id)
            for sd in np.nonzero(parts == donor)[0]:
                sd = int(sd)
                if not _donor_stays_connected(self.sd_grid, parts, donor, sd):
                    continue
                cx, cy = self.sd_grid.centers[sd]
                dist = float(np.hypot(cx - centroid[0], cy - centroid[1]))
                key = (-round(dist, 9), sd)
                if best is None or key < best:
                    best = key
            if best is None:
                continue
            sd = best[1]
            plans.append(TransferPlan(donor, n, 1, [sd]))
            parts[sd] = n
            node_load[donor] -= sd_work[sd]
            node_load[n] += sd_work[sd]
            counts[donor] -= 1
            counts[n] += 1
        return plans

    def _rebalance(self, ctx: _StepContext) -> Tuple[np.ndarray, List[TransferPlan]]:
        """Route the residual imbalance; returns ``(new_parts, plans)``.

        ``ctx.parts`` must not be mutated — strategies work on a copy.
        """
        raise NotImplementedError

    # -- shared movers -----------------------------------------------------
    def _settle(self, parts: np.ndarray, donor: int, receiver: int,
                amount: float, sd_work: np.ndarray,
                half_sd: float) -> List[TransferPlan]:
        """Move ~``amount`` work units of SDs from ``donor`` to ``receiver``.

        SDs move one at a time (re-evaluating the frontier after each)
        so heterogeneous work weights settle as closely as the SD
        granularity allows.  Stops early when the donor/receiver
        frontier is exhausted — the shortfall simply remains as residual
        imbalance and is retried at the next balancing step.
        """
        remaining = amount
        plans: List[TransferPlan] = []
        while remaining > half_sd:
            plan = select_transfers(
                self.sd_grid, parts, donor=donor, receiver=receiver, count=1,
                preserve_donor_connectivity=self.preserve_connectivity)
            if not plan.sds:
                break
            sd = plan.sds[0]
            parts[sd] = receiver
            remaining -= float(sd_work[sd])
            plans.append(plan)
        return plans

    def _greedy_settle(self, parts: np.ndarray, residual: np.ndarray,
                       sd_work: np.ndarray,
                       half_sd: float) -> List[TransferPlan]:
        """Repeated max->min settlement: one SD per move, no tree.

        Each move hands one frontier SD from the most-overloaded donor
        reachable by the most-underloaded receiver (falling back through
        the ranked pairs when geometry offers no shared frontier; when
        *no* surplus/deficit pair touches, one SD is relayed hop-by-hop
        along the node-adjacency path between the extreme pair).
        ``parts`` and ``residual`` are updated in place; terminates when
        every node is within half an average SD of its target or no
        realizable move remains (bounded by a hard move cap so degenerate
        zero-work weights cannot loop).
        """
        plans: List[TransferPlan] = []
        num_nodes = len(residual)
        budget = 4 * len(parts) + 8
        while budget > 0:
            # most surplus first / most deficit first, ties by node id
            order = np.argsort(residual, kind="stable")
            moves: List[TransferPlan] = []
            for r in order[::-1]:
                if residual[r] <= half_sd:
                    break
                for d in order:
                    if residual[d] >= -half_sd:
                        break
                    if d == r:
                        continue
                    plan = select_transfers(
                        self.sd_grid, parts, donor=int(d), receiver=int(r),
                        count=1,
                        preserve_donor_connectivity=self.preserve_connectivity)
                    if plan.sds:
                        moves = [plan]
                        break
                if moves:
                    break
            if not moves:
                moves = self._relay_moves(parts, residual, half_sd, num_nodes)
            if not moves:
                break
            for plan in moves:
                sd = plan.sds[0]
                parts[sd] = plan.receiver
                residual[plan.donor] += sd_work[sd]
                residual[plan.receiver] -= sd_work[sd]
                plans.append(plan)
                budget -= 1
        return plans

    def _relay_moves(self, parts: np.ndarray, residual: np.ndarray,
                     half_sd: float, num_nodes: int) -> List[TransferPlan]:
        """One SD relayed along the adjacency path from the most-
        overloaded to the most-underloaded node.

        Used when no surplus node shares a frontier with any deficit
        node (hot and cold regions separated by near-balanced ones):
        each hop moves one frontier SD to the next node on the BFS
        path, so the intermediate nodes stay net-neutral while one SD's
        worth of load crosses the gap.  Returns ``[]`` when the extreme
        pair is within threshold, disconnected, or geometry blocks a
        hop — the caller treats that as settled.
        """
        donor = int(np.argmin(residual))
        receiver = int(np.argmax(residual))
        if (residual[receiver] <= half_sd or residual[donor] >= -half_sd
                or donor == receiver):
            return []
        nbrs: Dict[int, List[int]] = {n: [] for n in range(num_nodes)}
        for a, b in node_adjacency(self.sd_grid, parts):
            nbrs[a].append(b)
            nbrs[b].append(a)
        # BFS (sorted neighbors: deterministic shortest path)
        prev = {donor: donor}
        queue = [donor]
        while queue and receiver not in prev:
            nxt: List[int] = []
            for n in queue:
                for m in sorted(nbrs[n]):
                    if m not in prev:
                        prev[m] = n
                        nxt.append(m)
            queue = nxt
        if receiver not in prev:
            return []
        path = [receiver]
        while path[-1] != donor:
            path.append(prev[path[-1]])
        path.reverse()
        moves: List[TransferPlan] = []
        staged = parts.copy()
        for a, b in zip(path, path[1:]):
            plan = select_transfers(
                self.sd_grid, staged, donor=a, receiver=b, count=1,
                preserve_donor_connectivity=self.preserve_connectivity)
            if not plan.sds:
                return []
            staged[plan.sds[0]] = b
            moves.append(plan)
        return moves
