"""Validation and round-trip tests for the service spec layer."""

import pytest

from repro.experiments import ClusterSpec
from repro.experiments.spec import ChurnEvent, FaultSpec
from repro.service import ArrivalSpec, ServiceSpec, TenantSpec


def _spec(**overrides):
    base = dict(
        name="svc",
        tenants=(TenantSpec(name="a"), TenantSpec(name="b", weight=2.0)),
        cluster=ClusterSpec(num_nodes=4),
        arrival=ArrivalSpec(rate=1000.0, seed=7),
        horizon=1e-3)
    base.update(overrides)
    return ServiceSpec(**base)


class TestArrivalSpec:
    def test_defaults_validate(self):
        spec = ArrivalSpec()
        assert spec.process == "poisson"

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError, match="arrival process"):
            ArrivalSpec(process="fractal")

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            ArrivalSpec(rate=-1.0)

    def test_negative_seed_rejected(self):
        """numpy seeds are non-negative: a negative one fails here, not
        in the arrival generator."""
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ArrivalSpec(seed=-1)
        doc = ArrivalSpec(seed=1).to_dict()
        doc["seed"] = -1
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ArrivalSpec.from_dict(doc)

    def test_amplitude_bounds(self):
        with pytest.raises(ValueError, match="amplitude"):
            ArrivalSpec(process="diurnal", amplitude=1.0)

    def test_round_trip(self):
        spec = ArrivalSpec(process="bursty", rate=5e4, seed=3,
                           burst_on=2e-4, burst_off=1e-3)
        assert ArrivalSpec.from_dict(spec.to_dict()) == spec


class TestTenantSpec:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            TenantSpec(name="")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            TenantSpec(name="t", weight=0.0)

    def test_round_trip(self):
        spec = TenantSpec(name="t", weight=1.5, nx=48, steps=3,
                          eps_factor=4.0)
        assert TenantSpec.from_dict(spec.to_dict()) == spec


class TestServiceSpec:
    def test_solver_marker(self):
        spec = _spec()
        assert spec.solver == "service"
        assert spec.to_dict()["solver"] == "service"

    def test_round_trip_exact(self):
        spec = _spec()
        assert ServiceSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_solver_specs(self):
        with pytest.raises(ValueError, match="not a service spec"):
            ServiceSpec.from_dict({"solver": "distributed", "name": "x",
                                   "tenants": []})

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            _spec(tenants=(TenantSpec(name="a"), TenantSpec(name="a")))

    def test_no_tenants_rejected(self):
        with pytest.raises(ValueError, match="tenant"):
            _spec(tenants=())

    def test_faulty_cluster_rejected(self):
        faults = FaultSpec(events=(ChurnEvent("fail", 1.0, node=0),))
        with pytest.raises(ValueError, match="fault-free"):
            _spec(cluster=ClusterSpec(num_nodes=4, faults=faults))

    def test_mesh_smaller_than_cluster_rejected(self):
        with pytest.raises(ValueError, match="block-split"):
            _spec(tenants=(TenantSpec(name="tiny", nx=2),),
                  cluster=ClusterSpec(num_nodes=4))

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="horizon"):
            _spec().replace(horizon=0.0)
