"""Spec → running service: the execution path for service scenarios.

:func:`run_service` mirrors :func:`repro.experiments.runner
.run_scenario` for the multi-tenant service: build the shared cluster
from the embedded :class:`ClusterSpec`, resolve one cached operator per
distinct tenant discretization (jobs with the same ``(nx, eps_factor,
backend)`` share the assembly — the cross-job reuse the service
measures), replay the seeded arrival trace through a
:class:`JobManager`, and reduce the event stream into a
:class:`RunRecord` whose ``service_events`` field carries the raw
trace.

Wave batching now runs **on** by default on the service cluster: the
wave machinery is barrier-aware (a wave is materialized the moment a
``when_all`` barrier observes any of its member futures early,
and ``submit_group`` / ``send_group`` batch each sweep and exchange
into one DES event per job step), so interleaved multi-job DAGs see
bit-identical telemetry with batching on or off.  ``wave_batching``
can still be forced either way per call — the parity tests and the
service bench run both modes and assert the ``service_events`` streams
are equal.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..amt.autoscale import AutoscaleController
from ..amt.cluster import ConstantSpeed, SimCluster
from ..costmodel import make_cost_model
from ..experiments.results import RunRecord
from ..experiments.runner import cached_operator
from .arrivals import generate_arrival_arrays, generate_arrivals
from .manager import JobManager
from .spec import ServiceSpec
from .telemetry import summarize_service

__all__ = ["run_service", "run_service_detailed", "summarize_record"]


def run_service_detailed(
        spec: ServiceSpec,
        wave_batching: bool = True
) -> Tuple[RunRecord, SimCluster]:
    """Execute one service point; return the record *and* the cluster.

    The cluster runs ``until=spec.horizon``: jobs still queued or
    mid-DAG at the horizon stay unfinished (they are the ``in_flight``
    count in the summary), and — via the drained-queue clock contract —
    an underloaded run still ends with ``now == horizon``, so busy
    fractions and goodput are always measured against the full window.

    ``wave_batching=False`` forces the strict one-event-per-task
    path.
    The returned cluster exposes the DES itself (``cluster.sim``) for
    callers that want ``events_processed`` or ``profile_report()``.
    """
    flops: Dict[int, float] = {}
    backends = set()
    backend_info: Dict[int, tuple] = {}
    for i, tenant in enumerate(spec.tenants):
        op = cached_operator(tenant.nx, tenant.nx, tenant.eps_factor,
                             spec.kernel_backend)
        flops[i] = op.flops_per_dp()
        backends.add(op.backend_name)
        backend_info[i] = (op.backend_name, op.radius)

    # same default rate as the distributed solver: 1e9 DP-update-flops
    # per virtual second per node (SimCluster's own default is a bare
    # 1.0 for unit tests); also the rate autoscale joiners inherit
    speeds = spec.cluster.build_speeds(default_rate=1e9)
    if speeds is None:
        speeds = [ConstantSpeed(1e9)] * spec.cluster.num_nodes
    memory = spec.cluster.build_memory()
    cost = make_cost_model(spec.cost_model, memory=memory)
    cluster = SimCluster(
        spec.cluster.num_nodes,
        cores_per_node=spec.cluster.cores_per_node,
        speeds=speeds,
        network=spec.cluster.build_network(),
        wave_batching=wave_batching,
        default_rate=1e9,
        cost_model=cost,
        memory=memory)

    manager = JobManager(cluster, spec, flops, cost_model=cost,
                         backend_info=backend_info)
    controller = None
    if spec.autoscale is not None:
        a = spec.autoscale
        controller = AutoscaleController(
            cluster, a.build_policy(),
            poll_interval=a.poll_interval,
            min_nodes=a.min_nodes, max_nodes=a.max_nodes,
            cooldown=a.cooldown, provision_delay=a.provision_delay,
            warmup=a.warmup, warmup_factor=a.warmup_factor,
            cores_per_node=spec.cluster.cores_per_node,
            metrics=manager.poll_signals,
            on_membership_change=manager.set_membership)
        controller.start()
    if cluster.wave_batching:
        # columnar trace straight into the arrival pump — no per-event
        # lambda and no Arrival object per job at service_extreme scale
        manager.feed_columnar(*generate_arrival_arrays(
            spec.arrival, spec.tenants, spec.horizon))
    else:
        manager.feed(generate_arrivals(spec.arrival, spec.tenants,
                                       spec.horizon))
    cluster.run(until=spec.horizon)

    record = RunRecord(
        scenario=spec.name, solver="service", spec=spec.to_dict(),
        num_steps=0,
        makespan=float(cluster.now),
        # final membership, joiners included (dead nodes keep their
        # slot so busy_total[i] still belongs to node id i)
        busy_total=[float(cluster.busy_time(n))
                    for n in range(len(cluster.nodes))],
        service_events=manager.events,
        scale_events=(list(controller.events) if controller is not None
                      else []),
        backend_resolved="+".join(sorted(backends)),
        cost_model_resolved=cost.name)
    return record, cluster


def run_service(spec: ServiceSpec,
                wave_batching: bool = True) -> RunRecord:
    """Execute one service point and collect its :class:`RunRecord`."""
    record, _cluster = run_service_detailed(spec, wave_batching)
    return record


def summarize_record(record: RunRecord) -> Dict:
    """The service summary of a (possibly JSON-round-tripped) record,
    with fairness normalized by the spec's tenant weights."""
    weights = {t["name"]: t["weight"] for t in record.spec["tenants"]}
    return summarize_service(record.service_events,
                             record.spec["horizon"], weights=weights)
