"""Workload-heterogeneity models that create the load imbalance the
paper's balancer corrects: crack geometry (:mod:`repro.models.crack`) and
time-varying node capacity (:mod:`repro.models.workload`)."""

from .crack import Crack, crack_work_factors
from .workload import drift_ramp, step_interference

__all__ = [
    "Crack", "crack_work_factors",
    "drift_ramp", "step_interference",
]
