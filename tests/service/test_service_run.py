"""End-to-end service runs: accounting, determinism, overload, parity."""

import json

import pytest

from repro.experiments import (SCHEMA, ClusterSpec, RunRecord, build,
                               run_scenario, run_sweep)
from repro.service import (ArrivalSpec, ServiceSpec, TenantSpec,
                           run_service, summarize_record,
                           summarize_service)


def _spec(**overrides):
    base = dict(
        name="svc-test",
        tenants=(TenantSpec(name="a", nx=32, steps=2),
                 TenantSpec(name="b", nx=32, steps=2, weight=2.0)),
        cluster=ClusterSpec(num_nodes=4),
        arrival=ArrivalSpec(rate=2e4, seed=0),
        horizon=2e-3)
    base.update(overrides)
    return ServiceSpec(**base)


class TestZeroArrivals:
    def test_empty_trace_clean_run(self):
        """No arrivals at all: the run must still land the clock on
        the horizon (the drained-queue clock contract) with an empty
        event stream and all-zero busy time."""
        rec = run_service(_spec(arrival=ArrivalSpec(rate=0.0)))
        assert rec.makespan == 2e-3
        assert rec.service_events == []
        assert rec.busy_total == [0.0] * 4
        summary = summarize_record(rec)
        assert summary["offered"] == 0
        assert summary["goodput"] == 0.0
        assert summary["fairness"] == 1.0


class TestAccounting:
    @pytest.fixture(scope="class")
    def overload(self):
        rec = run_service(_spec(arrival=ArrivalSpec(rate=2e5, seed=1),
                                max_queue_depth=4))
        return rec, summarize_record(rec)

    def test_offered_splits_into_shed_plus_admitted(self, overload):
        _, s = overload
        assert s["offered"] == s["shed"] + s["admitted"]
        assert s["admitted"] == s["completed"] + s["in_flight"]
        assert s["shed"] > 0

    def test_per_tenant_accounting_sums_to_totals(self, overload):
        _, s = overload
        assert sum(t["offered"] for t in s["tenants"].values()) \
            == s["offered"]
        assert sum(t["shed"] for t in s["tenants"].values()) == s["shed"]
        assert sum(t["completed"] for t in s["tenants"].values()) \
            == s["completed"]

    def test_events_are_time_ordered(self, overload):
        rec, _ = overload
        times = [e["t"] for e in rec.service_events]
        assert times == sorted(times)

    def test_every_start_precedes_its_finish(self, overload):
        rec, _ = overload
        started = set()
        for e in rec.service_events:
            key = (e["tenant"], e["job"])
            if e["kind"] == "start":
                started.add(key)
            elif e["kind"] == "finish":
                assert key in started
                assert e["makespan"] >= e["wait"] >= 0.0
                assert e["service"] > 0.0


class TestDeterminism:
    def test_seeded_bursty_repeats_bit_identical(self):
        spec = _spec(arrival=ArrivalSpec(process="bursty", rate=4e4,
                                         seed=13, burst_on=2e-4,
                                         burst_off=6e-4))
        first = run_service(spec).to_dict()
        second = run_service(spec).to_dict()
        assert first == second

    def test_record_round_trips_through_json(self):
        rec = run_service(_spec())
        clone = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert clone == rec
        assert clone.service_events
        assert summarize_record(clone) == summarize_record(rec)


class TestOverloadBehavior:
    def test_goodput_saturates_below_offered(self):
        """Doubling an already-saturating load must not double goodput
        — the shed count absorbs the excess instead."""
        light = summarize_record(run_service(_spec(
            arrival=ArrivalSpec(rate=2e4, seed=2))))
        heavy = summarize_record(run_service(_spec(
            arrival=ArrivalSpec(rate=3e5, seed=2), max_queue_depth=4)))
        heavier = summarize_record(run_service(_spec(
            arrival=ArrivalSpec(rate=6e5, seed=2), max_queue_depth=4)))
        assert light["shed"] == 0
        assert heavy["goodput"] > light["goodput"]
        assert heavy["goodput"] < 0.6 * heavy["offered_rate"]
        assert heavier["goodput"] < 1.2 * heavy["goodput"]
        assert heavier["shed"] > heavy["shed"]

    def test_bounded_queue_bounds_the_wait(self):
        """With depth-D queues an admitted job waits at most roughly
        D * (its queue's drain time), not the whole horizon."""
        s = summarize_record(run_service(_spec(
            arrival=ArrivalSpec(rate=6e5, seed=3), max_queue_depth=4,
            horizon=4e-3)))
        assert s["shed"] > 0
        assert s["p99_wait"] < 0.25 * 4e-3


class TestSweepParity:
    def test_parallel_sweep_matches_serial(self):
        specs = [build("service_poisson", horizon=1e-3, seed=s)
                 for s in (0, 1, 2, 3)]
        serial = run_sweep(specs, serial=True)
        parallel = run_sweep(specs, serial=False, max_workers=2)
        assert [r.to_dict() for r in parallel] \
            == [r.to_dict() for r in serial]

    def test_mixed_sweep_dispatches_by_solver(self):
        specs = [build("service_poisson", horizon=1e-3),
                 build("fig14_load_balance", steps=2)]
        records = run_sweep(specs, serial=False, max_workers=2)
        assert [r.solver for r in records] == ["service", "distributed"]


class TestRegistryScenarios:
    def test_registered_names_build_and_run(self):
        for name in ("service_poisson", "service_bursty",
                     "service_overload"):
            spec = build(name, horizon=5e-4)
            assert spec.solver == "service"
            rec = run_scenario(spec)
            assert rec.scenario == name
            assert rec.solver == "service"

    def test_operator_sharing_across_tenants(self):
        from repro.experiments import clear_operator_cache, \
            operator_cache_info
        clear_operator_cache()
        run_service(build("service_poisson", horizon=2e-4))
        # alpha+beta share one 32x32 assembly; gamma builds the 48x48
        assert operator_cache_info().currsize == 2

    def test_overload_scenario_sheds_and_saturates(self):
        rec = run_scenario(build("service_overload"))
        s = summarize_record(rec)
        assert s["shed"] > 0
        assert s["goodput"] < 0.5 * s["offered_rate"]
        # admitted jobs' tail wait is bounded by the finite queues
        assert s["p99_wait"] < 0.5 * rec.spec["horizon"]

    def test_schema_is_v7(self):
        assert SCHEMA == "repro.experiments/v7"
