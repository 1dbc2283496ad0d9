"""Compute-capacity estimation and load imbalance — eqs. (8)-(10).

The paper measures each node's capacity from the busy-time performance
counter:

    Power(N_i)         = SD(N_i) / BusyTime(N_i)                  (8)
    E(N_i)             = TotalSDs * Power(N_i) / sum_j Power(N_j) (10)
    LoadImbalance(N_i) = E(N_i) - SD(N_i)                         (9)

Positive imbalance means the node is faster than its current share and
should *borrow* SDs; negative means it should *lend*.

Edge cases the paper leaves implicit are made explicit here: a node with
zero SDs (or zero busy time) has no power measurement, so it is assigned
the mean of the measured powers — optimistic enough that an idle node
re-enters the distribution rather than being starved forever.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["compute_power", "expected_sds",
           "imbalance_ratio", "integer_targets"]


def compute_power(sd_counts: Sequence[float], busy_times: Sequence[float],
                  work_per_sd: Optional[Sequence[float]] = None) -> np.ndarray:
    """Eq. (8): ``Power(N_i) = SD(N_i) / BusyTime(N_i)``.

    Parameters
    ----------
    sd_counts:
        SDs per node over the measurement window.
    busy_times:
        Window busy time per node (same window for all nodes — the
        counters are reset together, Algorithm 1 line 35).
    work_per_sd:
        Optional per-node average work weight of its SDs; when SDs carry
        heterogeneous work (crack model), power is computed from
        *work* processed per busy second instead of raw SD count, which
        keeps eq. (8) meaningful.  Default treats SDs as uniform.

    Returns
    -------
    Positive float array; unmeasurable nodes get the mean measured power
    (or 1.0 if nothing is measurable).
    """
    sds = np.asarray(sd_counts, dtype=np.float64)
    busy = np.asarray(busy_times, dtype=np.float64)
    if sds.shape != busy.shape:
        raise ValueError(f"shape mismatch {sds.shape} vs {busy.shape}")
    if np.any(sds < 0) or np.any(busy < 0):
        raise ValueError("sd counts and busy times must be non-negative")
    load = sds if work_per_sd is None else sds * np.asarray(work_per_sd)
    measurable = (load > 0) & (busy > 0)
    power = np.empty_like(busy)
    power[measurable] = load[measurable] / busy[measurable]
    if measurable.any():
        fallback = float(power[measurable].mean())
    else:
        fallback = 1.0
    power[~measurable] = fallback
    return power


def expected_sds(total_sds: float, power: Sequence[float]) -> np.ndarray:
    """Eq. (10): the SD share proportional to node power."""
    power = np.asarray(power, dtype=np.float64)
    if np.any(power <= 0):
        raise ValueError("power values must be positive")
    return total_sds * power / power.sum()


def integer_targets(expected: Sequence[float]) -> np.ndarray:
    """Round real-valued expected SD shares to integers, conserving the sum.

    Largest-remainder apportionment: floor everything, then hand the
    leftover units to the nodes with the largest fractional parts (ties
    broken by node id for determinism).  Needed because eq. (10) yields
    fractional shares while SDs are indivisible; naive per-node rounding
    can change the total and makes Algorithm 1 oscillate between
    configurations that are both within one SD of ideal.
    """
    exp = np.asarray(expected, dtype=np.float64)
    if np.any(exp < 0):
        raise ValueError("expected shares must be non-negative")
    total = int(round(exp.sum()))
    base = np.floor(exp).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        frac = exp - base
        # argsort ascending on (-frac, id): largest remainders first
        order = np.lexsort((np.arange(len(exp)), -frac))
        base[order[:leftover]] += 1
    elif leftover < 0:  # only possible through float round-off
        frac = exp - base
        order = np.lexsort((np.arange(len(exp)), frac))
        for i in order:
            if leftover == 0:
                break
            if base[i] > 0:
                base[i] -= 1
                leftover += 1
    return base


def imbalance_ratio(busy_times: Sequence[float]) -> float:
    """Max/mean busy time — the scalar "are we imbalanced?" indicator.

    1.0 means perfectly balanced ("in an ideal case, the busy time should
    be the same for all nodes"); used by the triggering policies.
    """
    busy = np.asarray(busy_times, dtype=np.float64)
    if len(busy) == 0:
        raise ValueError("need at least one node")
    mean = busy.mean()
    if mean <= 0:
        return 1.0
    return float(busy.max() / mean)
