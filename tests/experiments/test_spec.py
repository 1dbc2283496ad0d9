"""Spec validation and dict/JSON round-trip contracts."""

import json

import numpy as np
import pytest

from repro.experiments import (ChurnEvent, ClusterSpec, DriftSpec, FaultSpec,
                               InterferenceSpec, MemorySpec, MeshSpec,
                               PartitionSpec, PolicySpec, ScenarioSpec)


class TestMeshSpec:
    def test_square_defaults(self):
        m = MeshSpec(nx=64, sd_nx=4)
        assert (m.ny, m.sd_ny) == (64, 4)
        assert m.num_subdomains == 16

    @pytest.mark.parametrize("kwargs", [
        dict(nx=0),
        dict(nx=64, ny=-1),
        dict(nx=64, sd_nx=0),
        dict(nx=65, sd_nx=8),        # SDs must tile evenly
        dict(nx=64, sd_nx=4, sd_ny=5),
        dict(nx=4, sd_nx=8),          # more SDs than DPs
        dict(nx=64, eps_factor=0.0),
        dict(nx=64, eps_factor=-2.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MeshSpec(**kwargs)


class TestClusterSpec:
    def test_defaults(self):
        c = ClusterSpec()
        assert c.build_speeds() is None
        net = c.build_network()
        assert net.bytes_sent == 0

    def test_fresh_network_per_build(self):
        c = ClusterSpec(latency=1e-4, bandwidth=1e6)
        assert c.build_network() is not c.build_network()
        assert c.build_network().latency == 1e-4

    def test_speeds_and_interference(self):
        c = ClusterSpec(num_nodes=2, speed_rates=(1e9, 2e9),
                        interference=(InterferenceSpec(
                            node=1, start=0.5, stop=1.0, slowdown=0.5),))
        traces = c.build_speeds()
        assert len(traces) == 2
        assert traces[0].rate(0.0) == 1e9
        assert traces[1].rate(0.75) == 1e9  # 2e9 * 0.5 in the window
        assert traces[1].rate(2.0) == 2e9

    @pytest.mark.parametrize("kwargs", [
        dict(num_nodes=0),
        dict(cores_per_node=0),
        dict(num_nodes=2, speed_rates=(1e9,)),     # wrong length
        dict(speed_rates=(0.0,)),
        dict(latency=-1.0),
        dict(bandwidth=0.0),
        dict(spawn_overhead=-1e-6),
        dict(num_nodes=1, interference=(
            InterferenceSpec(node=3, start=0.0, stop=1.0),)),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ClusterSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(node=0, start=1.0, stop=0.5),
        dict(node=0, start=0.0, stop=1.0, slowdown=0.0),
        dict(node=0, start=0.0, stop=1.0, slowdown=1.5),
        dict(node=-1, start=0.0, stop=1.0),
    ])
    def test_invalid_interference(self, kwargs):
        with pytest.raises(ValueError):
            InterferenceSpec(**kwargs)


class TestDriftSpec:
    def test_build_speeds_ramps_every_node(self):
        from repro.amt.cluster import RampSpeed
        c = ClusterSpec(num_nodes=2, speed_rates=(1e9, 2e9),
                        drift=DriftSpec(rates_end=(2e9, 1e9),
                                        start=1.0, stop=3.0))
        traces = c.build_speeds()
        assert all(isinstance(t, RampSpeed) for t in traces)
        assert traces[0].rate(0.0) == 1e9
        assert traces[0].rate(2.0) == pytest.approx(1.5e9)  # mid-ramp
        assert traces[0].rate(5.0) == 2e9
        assert traces[1].rate(5.0) == 1e9

    def test_drift_uses_default_base_rates(self):
        c = ClusterSpec(num_nodes=2,
                        drift=DriftSpec(rates_end=(2e9, 5e8),
                                        start=0.0, stop=1.0))
        traces = c.build_speeds(default_rate=1e9)
        assert traces[0].rate(0.0) == 1e9
        assert traces[0].rate(2.0) == 2e9

    @pytest.mark.parametrize("kwargs", [
        dict(rates_end=()),                              # no rates
        dict(rates_end=(1e9, 0.0), start=0.0, stop=1.0),  # zero rate
        dict(rates_end=(1e9,), start=1.0, stop=1.0),      # empty window
        dict(rates_end=(1e9,), start=-1.0, stop=1.0),     # negative start
    ])
    def test_invalid_drift(self, kwargs):
        with pytest.raises(ValueError):
            DriftSpec(**kwargs)

    def test_drift_length_must_match_nodes(self):
        with pytest.raises(ValueError, match="end rates"):
            ClusterSpec(num_nodes=3,
                        drift=DriftSpec(rates_end=(1e9,), start=0, stop=1))

    def test_drift_and_interference_exclusive(self):
        with pytest.raises(ValueError, match="cannot be combined"):
            ClusterSpec(
                num_nodes=1,
                drift=DriftSpec(rates_end=(1e9,), start=0, stop=1),
                interference=(InterferenceSpec(node=0, start=0.0,
                                               stop=1.0),))


class TestFaultSpec:
    EVENTS = (ChurnEvent("straggle", 0.5, 0, stop=1.0, factor=0.5),
              ChurnEvent("fail", 1.0, 1),
              ChurnEvent("join", 2.0, 3, rate=2e9))

    def test_cluster_accepts_and_builds_schedule(self):
        spec = ClusterSpec(num_nodes=3, faults=FaultSpec(events=self.EVENTS))
        sched = spec.build_faults()
        assert sched.initial_nodes == 3
        assert sched.max_nodes == 4
        assert [e.kind for e in sched.events] == ["straggle", "fail", "join"]
        assert ClusterSpec(num_nodes=3).build_faults() is None

    def test_membership_validated_at_spec_construction(self):
        # a schedule that fails an unknown node must not survive to the
        # solver: ClusterSpec builds the runtime schedule eagerly
        with pytest.raises(ValueError, match="before it exists"):
            ClusterSpec(num_nodes=2,
                        faults=FaultSpec(events=(ChurnEvent("fail", 1.0, 7),)))
        with pytest.raises(ValueError, match="no alive nodes"):
            ClusterSpec(num_nodes=1,
                        faults=FaultSpec(events=(ChurnEvent("fail", 1.0, 0),)))
        with pytest.raises(ValueError, match="recovery_penalty"):
            FaultSpec(recovery_penalty=-1.0)

    def test_dicts_normalized_to_events(self):
        spec = FaultSpec.from_dict(
            {"events": [{"kind": "fail", "time": 1.0, "node": 0}]})
        assert isinstance(spec.events[0], ChurnEvent)
        cluster = ClusterSpec.from_dict(
            {"num_nodes": 2,
             "faults": {"events": [{"kind": "fail", "time": 1.0,
                                    "node": 0}]}})
        assert cluster.faults.events[0].node == 0
        assert cluster.faults.recovery_penalty == FaultSpec().recovery_penalty

    def test_faults_compose_with_other_capacity_fields(self):
        # straggles wrap whatever trace the cluster produces, so faults
        # are legal alongside speed_rates, interference, and drift
        ClusterSpec(num_nodes=2, speed_rates=(1e9, 2e9),
                    faults=FaultSpec(events=self.EVENTS[:1]))
        ClusterSpec(num_nodes=2,
                    drift=DriftSpec(rates_end=(1e9, 2e9), start=0.1,
                                    stop=0.2),
                    faults=FaultSpec(events=self.EVENTS[:1]))

    def test_legacy_cluster_dicts_default_to_no_faults(self):
        cluster = ClusterSpec.from_dict({"num_nodes": 2})
        assert cluster.faults is None


class TestPartitionSpec:
    def test_single(self):
        parts = PartitionSpec(method="single").build(4, 4, 3)
        assert (parts == 0).all()

    def test_corner_imbalanced(self):
        parts = PartitionSpec(method="corner_imbalanced").build(5, 5, 4)
        counts = np.bincount(parts, minlength=4)
        assert list(counts) == [22, 1, 1, 1]
        # the paper's Fig. 14 left grid: nodes 1-3 on distinct corners
        # (top-right, bottom-left, bottom-right)
        assert (parts[4], parts[20], parts[24]) == (1, 2, 3)

    def test_corner_imbalanced_more_nodes_than_corners(self):
        parts = PartitionSpec(method="corner_imbalanced").build(4, 4, 6)
        counts = np.bincount(parts, minlength=6)
        assert counts.sum() == 16
        assert list(counts[1:]) == [1] * 5  # one SD per non-zero node

    def test_corner_imbalanced_degenerate_grids(self):
        # 1-wide grids collapse corners: every node must still own a SD
        for shape in ((1, 5), (5, 1), (2, 2)):
            parts = PartitionSpec(method="corner_imbalanced").build(
                shape[0], shape[1], 4)
            assert (np.bincount(parts, minlength=4) >= 1).all()
        with pytest.raises(ValueError):
            PartitionSpec(method="corner_imbalanced").build(2, 2, 9)

    def test_explicit(self):
        spec = PartitionSpec(method="explicit", parts=(0, 1, 1, 0))
        assert list(spec.build(2, 2, 2)) == [0, 1, 1, 0]
        with pytest.raises(ValueError):
            spec.build(4, 4, 2)  # wrong length for the SD grid

    @pytest.mark.parametrize("method", ["metis", "blocks", "strips",
                                        "rcb", "spectral"])
    def test_methods_cover_all_nodes(self, method):
        parts = PartitionSpec(method=method).build(8, 8, 4)
        assert len(parts) == 64
        assert set(parts) == {0, 1, 2, 3}

    @pytest.mark.parametrize("kwargs", [
        dict(method="magic"),
        dict(method="explicit"),                       # missing parts
        dict(method="metis", parts=(0, 1)),            # parts w/o explicit
        dict(method="explicit", parts=(0, -1)),
        dict(method="strips", axis=2),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PartitionSpec(**kwargs)

    def test_negative_seed_rejected(self):
        """numpy seeds are non-negative: a negative one fails here, not
        deep inside the partitioner."""
        with pytest.raises(ValueError, match="seed must be >= 0"):
            PartitionSpec(seed=-3)
        doc = PartitionSpec(seed=3).to_dict()
        doc["seed"] = -3
        with pytest.raises(ValueError, match="seed must be >= 0"):
            PartitionSpec.from_dict(doc)


class TestPolicySpec:
    def test_build(self):
        from repro.core.policy import IntervalPolicy, ThresholdPolicy
        assert PolicySpec().build() is None
        assert isinstance(PolicySpec(kind="interval", interval=2).build(),
                          IntervalPolicy)
        assert isinstance(PolicySpec(kind="threshold", ratio=1.2).build(),
                          ThresholdPolicy)

    @pytest.mark.parametrize("kwargs", [
        dict(kind="sometimes"),
        dict(kind="interval", interval=0),
        dict(kind="threshold", ratio=0.9),
        dict(kind="threshold", min_interval=0),
        dict(balancer="magic"),
        dict(balancer=""),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PolicySpec(**kwargs)

    def test_balancer_defaults_to_auto(self):
        from repro.core.strategies import strategy_names
        assert PolicySpec().balancer == "auto"
        for name in strategy_names():
            assert PolicySpec(balancer=name).balancer == name

    def test_balancer_survives_legacy_dicts(self):
        """Policy dicts written before the strategy field (PR-1/2 result
        files) must still load, defaulting to auto."""
        d = PolicySpec(kind="interval", interval=2).to_dict()
        del d["balancer"]
        assert PolicySpec.from_dict(d).balancer == "auto"

    def test_scenario_surfaces_the_policy_balancer(self):
        s = ScenarioSpec(name="s", mesh=MeshSpec(nx=16, sd_nx=4),
                         policy=PolicySpec(kind="interval",
                                           balancer="diffusion"))
        assert s.balancer == "diffusion"
        assert s.with_balancer("greedy").policy.balancer == "greedy"
        with pytest.raises(ValueError):
            s.with_balancer("magic")


class TestScenarioSpec:
    def test_serial_implies_numerics(self):
        s = ScenarioSpec(name="s", mesh=MeshSpec(nx=16), solver="serial")
        assert s.compute_numerics

    @pytest.mark.parametrize("kwargs", [
        dict(name=""),
        dict(name="s", solver="quantum"),
        dict(name="s", num_steps=-1),
        dict(name="s", source_mode="exact"),
        dict(name="s", dt=0.0),
        dict(name="s", track_error=True),          # needs numerics
        dict(name="s", cracks=(((0.1, 0.2),),)),   # one-point polyline
        dict(name="s", crack_floor=0.0),
        dict(name="s", crack_floor=1.5),
        dict(name="s", crack_horizon_factor=0.0),
        dict(name="s", kernel_backend="quantum"),
        dict(name="s", kernel_backend=""),
        dict(name="s", cost_model="oracle"),
        dict(name="s", cost_model=""),
    ])
    def test_invalid(self, kwargs):
        kwargs.setdefault("mesh", MeshSpec(nx=16, sd_nx=4))
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs)

    def test_distributed_needs_enough_sds(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="s", mesh=MeshSpec(nx=16, sd_nx=2),
                         cluster=ClusterSpec(num_nodes=8))

    def test_replace_revalidates(self):
        s = ScenarioSpec(name="s", mesh=MeshSpec(nx=16, sd_nx=4))
        assert s.replace(num_steps=7).num_steps == 7
        with pytest.raises(ValueError):
            s.replace(num_steps=-2)

    def test_kernel_backend_defaults_to_auto(self):
        s = ScenarioSpec(name="s", mesh=MeshSpec(nx=16, sd_nx=4))
        assert s.kernel_backend == "auto"
        # every registered backend is a valid choice
        from repro.solver.backends import backend_names
        for name in backend_names():
            assert s.replace(kernel_backend=name).kernel_backend == name

    def test_kernel_backend_survives_legacy_dicts(self):
        """Spec dicts written before the backend field (PR-1 result
        files) must still load, defaulting to auto."""
        s = ScenarioSpec(name="s", mesh=MeshSpec(nx=16, sd_nx=4))
        d = s.to_dict()
        del d["kernel_backend"]
        assert ScenarioSpec.from_dict(d).kernel_backend == "auto"

    def test_cost_model_survives_legacy_dicts(self):
        """Pre-v7 spec dicts have no cost_model/work_factors/memory
        keys: they must load as auto/None — the flat seed arithmetic."""
        s = ScenarioSpec(name="s", mesh=MeshSpec(nx=16, sd_nx=4))
        d = s.to_dict()
        for key in ("cost_model", "work_factors"):
            del d[key]
        del d["cluster"]["memory"]
        loaded = ScenarioSpec.from_dict(d)
        assert loaded.cost_model == "auto"
        assert loaded.work_factors is None
        assert loaded.cluster.memory is None


class TestWorkFactorsValidation:
    """Explicit per-SD work multipliers fail at spec construction, not
    steps into a sweep when build_work_factors first touches them."""

    def make(self, **kw):
        return ScenarioSpec(name="s", mesh=MeshSpec(nx=16, sd_nx=4), **kw)

    def test_valid_factors_normalize_to_floats(self):
        s = self.make(work_factors=tuple(range(1, 17)))
        assert s.work_factors == tuple(float(w) for w in range(1, 17))

    def test_wrong_length_rejected_eagerly(self):
        with pytest.raises(ValueError, match="work_factors has 3 entries"):
            self.make(work_factors=(1.0, 2.0, 3.0))

    def test_negative_factor_rejected_eagerly(self):
        with pytest.raises(ValueError, match="non-negative"):
            self.make(work_factors=(1.0,) * 15 + (-0.5,))

    def test_non_numeric_factor_rejected_eagerly(self):
        with pytest.raises((TypeError, ValueError)):
            self.make(work_factors=("heavy",) * 16)

    def test_cracks_and_work_factors_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            self.make(work_factors=(1.0,) * 16,
                      cracks=(((0.1, 0.1), (0.9, 0.9)),))

    def test_replace_revalidates_factors(self):
        s = self.make(work_factors=(1.0,) * 16)
        with pytest.raises(ValueError):
            s.replace(work_factors=(1.0,) * 5)

    def test_factors_flow_into_the_runner(self):
        from repro.experiments.runner import build_work_factors
        factors = tuple(float(1 + i % 3) for i in range(16))
        wf = build_work_factors(self.make(work_factors=factors))
        assert wf.dtype == np.float64
        assert tuple(wf) == factors
        assert build_work_factors(self.make()) is None


def _sample_specs():
    yield ScenarioSpec(name="tiny", mesh=MeshSpec(nx=16, sd_nx=4))
    yield ScenarioSpec(
        name="full",
        mesh=MeshSpec(nx=64, ny=32, sd_nx=8, sd_ny=4, eps_factor=4.0),
        cluster=ClusterSpec(
            num_nodes=4, cores_per_node=2, speed_rates=(1e9, 2e9, 1e9, 5e8),
            interference=(InterferenceSpec(node=0, start=0.1, stop=0.2,
                                           slowdown=0.5),),
            latency=1e-5, bandwidth=1e8, spawn_overhead=5e-6),
        partition=PartitionSpec(method="strips", axis=1, seed=3),
        policy=PolicySpec(kind="threshold", ratio=1.25, min_interval=2),
        num_steps=7, overlap=False,
        cracks=(((0.1, 0.5), (0.9, 0.5)), ((0.2, 0.2), (0.5, 0.5),
                                           (0.8, 0.2))),
        crack_floor=0.3, crack_horizon_factor=1.5)
    yield ScenarioSpec(name="serial", mesh=MeshSpec(nx=8, eps_factor=2.0),
                       solver="serial", dt=1e-4, track_error=True,
                       source_mode="discrete")
    yield ScenarioSpec(name="explicit",
                       mesh=MeshSpec(nx=8, sd_nx=2),
                       cluster=ClusterSpec(num_nodes=2),
                       partition=PartitionSpec(method="explicit",
                                               parts=(0, 1, 1, 0)))
    yield ScenarioSpec(name="backend", mesh=MeshSpec(nx=8, sd_nx=2),
                       kernel_backend="fft")
    yield ScenarioSpec(name="costed", mesh=MeshSpec(nx=8, sd_nx=2),
                       cluster=ClusterSpec(num_nodes=2,
                                           memory=MemorySpec()),
                       cost_model="hierarchy",
                       work_factors=(1.0, 2.0, 1.5, 0.5))
    yield ScenarioSpec(
        name="drifting",
        mesh=MeshSpec(nx=8, sd_nx=2),
        cluster=ClusterSpec(num_nodes=2, speed_rates=(1e9, 2e9),
                            drift=DriftSpec(rates_end=(2e9, 1e9),
                                            start=0.5, stop=1.5)),
        policy=PolicySpec(kind="interval", balancer="repartition"))
    yield ScenarioSpec(
        name="churny",
        mesh=MeshSpec(nx=8, sd_nx=2),
        cluster=ClusterSpec(
            num_nodes=2,
            faults=FaultSpec(
                events=(ChurnEvent("straggle", 0.1, 0, stop=0.2,
                                   factor=0.5),
                        ChurnEvent("fail", 0.5, 1),
                        ChurnEvent("join", 0.7, 2, cores=2, rate=2e9)),
                recovery_penalty=0.5)),
        policy=PolicySpec(kind="interval", balancer="tree"))


class TestRoundTrip:
    @pytest.mark.parametrize("spec", list(_sample_specs()),
                             ids=lambda s: s.name)
    def test_dict_round_trip(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec", list(_sample_specs()),
                             ids=lambda s: s.name)
    def test_json_round_trip(self, spec):
        through_json = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(through_json) == spec

    def test_sub_spec_round_trips(self):
        for sub in (MeshSpec(nx=32, sd_nx=2),
                    ClusterSpec(num_nodes=3, speed_rates=(1.0, 2.0, 3.0)),
                    ClusterSpec(num_nodes=2, speed_rates=(1.0, 2.0),
                                drift=DriftSpec(rates_end=(2.0, 1.0),
                                                start=0.0, stop=1.0)),
                    DriftSpec(rates_end=(1.0, 2.0), start=0.5, stop=2.0),
                    PartitionSpec(method="explicit", parts=(0, 1)),
                    PolicySpec(kind="interval", interval=4),
                    PolicySpec(kind="threshold", balancer="greedy"),
                    FaultSpec(events=(ChurnEvent("fail", 1.0, 0),
                                      ChurnEvent("join", 2.0, 2)),
                              recovery_penalty=0.125)):
            assert type(sub).from_dict(
                json.loads(json.dumps(sub.to_dict()))) == sub
