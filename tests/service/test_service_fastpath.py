"""The service fast path: wave batching + arrival pump parity.

``run_service`` now runs with wave batching on by default — sweeps go
through ``submit_group``/``send_group`` and the arrival trace through
the manager's chunked pump.  The contract is *bit-identical*
observables: every record field (the full ``service_events`` stream,
busy totals, makespan) must equal the forced-off per-event run on
every scenario and across mid-horizon cuts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ClusterSpec, build
from repro.service import (ArrivalSpec, ServiceSpec, TenantSpec,
                           run_service, run_service_detailed)


@pytest.mark.parametrize("name", ["service_poisson", "service_bursty",
                                  "service_overload"])
def test_registry_scenarios_waves_on_off_bit_identical(name):
    spec = build(name)
    on = run_service(spec, wave_batching=True)
    off = run_service(spec, wave_batching=False)
    assert list(on.service_events) == list(off.service_events)
    assert on.to_dict() == off.to_dict()


def test_fast_path_actually_reduces_events():
    spec = build("service_overload")
    _, cl_on = run_service_detailed(spec, wave_batching=True)
    _, cl_off = run_service_detailed(spec, wave_batching=False)
    assert cl_on.sim.events_processed < cl_off.sim.events_processed / 2


def _small_spec(rate, seed, depth, concurrent, tenants, horizon):
    mix = tuple(
        TenantSpec(name=f"t{i}", weight=1.0 + (i % 2), nx=16, steps=2)
        for i in range(tenants))
    return ServiceSpec(
        name="hyp", tenants=mix, cluster=ClusterSpec(num_nodes=2),
        arrival=ArrivalSpec(process="poisson", rate=rate, seed=seed),
        horizon=horizon, max_queue_depth=depth,
        max_concurrent=concurrent)


class TestMultiTenantInterleaving:
    @settings(max_examples=25, deadline=None)
    @given(rate=st.sampled_from([2e4, 1e5, 4e5]),
           seed=st.integers(min_value=0, max_value=2**16),
           depth=st.integers(min_value=1, max_value=8),
           concurrent=st.integers(min_value=1, max_value=6),
           tenants=st.integers(min_value=1, max_value=4))
    def test_interleaved_dags_bit_identical(self, rate, seed, depth,
                                            concurrent, tenants):
        """Randomized admission pressure: interleaved multi-tenant
        step-DAGs must be invisible to the wave fast path."""
        spec = _small_spec(rate, seed, depth, concurrent, tenants, 5e-4)
        on = run_service(spec, wave_batching=True)
        off = run_service(spec, wave_batching=False)
        assert on.to_dict() == off.to_dict()


class TestMidHorizonCut:
    def test_cut_and_resume_matches_one_shot(self):
        """Stopping the cluster mid-horizon (materializing every
        in-flight group) and resuming must not perturb anything."""
        from repro.amt.cluster import ConstantSpeed, SimCluster
        from repro.experiments.runner import cached_operator
        from repro.service.arrivals import generate_arrivals
        from repro.service.manager import JobManager

        # cost model pinned to flat: the hand-rolled JobManager below
        # prices with the FLAT default, so run_service must too
        spec = build("service_overload").replace(cost_model="flat")

        def run(cut):
            flops = {}
            for i, tenant in enumerate(spec.tenants):
                op = cached_operator(tenant.nx, tenant.nx,
                                     tenant.eps_factor,
                                     spec.kernel_backend)
                flops[i] = op.flops_per_dp()
            speeds = (spec.cluster.build_speeds(default_rate=1e9)
                      or [ConstantSpeed(1e9)] * spec.cluster.num_nodes)
            cluster = SimCluster(
                spec.cluster.num_nodes,
                cores_per_node=spec.cluster.cores_per_node,
                speeds=speeds,
                network=spec.cluster.build_network(),
                wave_batching=True)
            manager = JobManager(cluster, spec, flops)
            manager.feed(generate_arrivals(spec.arrival, spec.tenants,
                                           spec.horizon))
            if cut is not None:
                cluster.run(until=cut)
            cluster.run(until=spec.horizon)
            return (list(manager.events),
                    [float(cluster.busy_time(n))
                     for n in range(spec.cluster.num_nodes)])

        one_shot = run(None)
        composite = run(spec.horizon * 0.37)
        assert composite == one_shot
        off = run_service(spec, wave_batching=False)
        assert one_shot[0] == list(off.service_events)

