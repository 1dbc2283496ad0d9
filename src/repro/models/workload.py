"""Time-varying node capacity traces (paper Sec. 4, challenge 4).

"Compute capacity of the individual computational nodes may vary with
time, either due to scheduling of some other task or due to the
intrinsic behaviour of the nonlocal model."  These factories build
:class:`repro.amt.cluster.SpeedTrace` instances modelling the external
interference case:

* :func:`step_interference` — a competing job lands on the node for a
  window, halving (configurably) its rate;
* :func:`drift_ramp` — capacity drifts linearly from one rate to
  another over a window.
"""

from __future__ import annotations

from typing import List, Sequence

from ..amt.cluster import ConstantSpeed, PiecewiseSpeed, RampSpeed, SpeedTrace

__all__ = ["step_interference", "drift_ramp"]


def drift_ramp(rates_start: Sequence[float], rates_end: Sequence[float],
               start: float, stop: float) -> List[SpeedTrace]:
    """Per-node capacity that drifts linearly from start to end rates.

    Every node ramps from ``rates_start[i]`` to ``rates_end[i]`` over
    the virtual-time window ``[start, stop]`` (constant outside it) —
    the ``hetero_drift`` workload where the load distribution shifts
    *mid-run* and one-shot balancing decisions age badly.  Nodes whose
    two rates coincide get a plain :class:`ConstantSpeed`.
    """
    if len(rates_start) != len(rates_end):
        raise ValueError(f"need matching rate vectors, got "
                         f"{len(rates_start)} vs {len(rates_end)}")
    return [ConstantSpeed(r0) if r0 == r1
            else RampSpeed(r0, r1, start, stop)
            for r0, r1 in zip(rates_start, rates_end)]


def step_interference(base_rate: float, start: float, stop: float,
                      slowdown: float = 0.5) -> SpeedTrace:
    """A node that runs at ``base_rate`` except during ``[start, stop)``,
    where a competing job scales it by ``slowdown``.
    """
    if not 0 < slowdown <= 1:
        raise ValueError(f"slowdown must be in (0,1], got {slowdown}")
    if stop <= start:
        raise ValueError(f"need start < stop, got [{start},{stop})")
    if start <= 0:
        return PiecewiseSpeed([stop], [base_rate * slowdown, base_rate])
    return PiecewiseSpeed([start, stop],
                          [base_rate, base_rate * slowdown, base_rate])
