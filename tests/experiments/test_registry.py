"""Registry completeness: every name builds and runs a tiny config."""

import pytest

from repro.experiments import (ScenarioSpec, build, get_factory, register,
                               run_scenario, scenario_names)

EXPECTED = {
    "fig08_convergence", "fig09_strong_shared", "fig10_weak_shared",
    "fig11_strong_distributed", "fig12_weak_distributed",
    "fig13_metis_scaling", "fig14_load_balance",
    "abl_overlap", "abl_partitioners", "abl_balancing_gain",
    "abl_backends", "abl_balancers",
    "crack_hetero", "hetero_interference", "hetero_drift", "quickstart",
    "solve_serial", "scale_strong", "scale_extreme",
    "hetero_churn", "fault_recovery", "straggler_tail",
}


def test_registry_contains_the_paper_scenarios():
    names = scenario_names()
    assert EXPECTED <= set(names)
    assert names == sorted(names)


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        get_factory("fig99_imaginary")
    with pytest.raises(KeyError):
        build("fig99_imaginary")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        register("fig14_load_balance")(lambda: None)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_scenario_builds(name):
    spec = build(name)
    assert isinstance(spec, ScenarioSpec)
    # the registered name is the spec's name: `repro run --scenario X`
    # reports what it ran
    assert spec.name == name
    # every factory takes a `steps` override (tiny smoke configs, CLI)
    assert build(name, steps=1).num_steps == 1


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_scenario_runs_tiny(name):
    rec = run_scenario(build(name, steps=1))
    assert rec.scenario == name
    assert rec.num_steps == 1
    if rec.solver == "distributed":
        assert rec.makespan > 0
        assert len(rec.step_durations) == 1
    else:
        assert rec.total_error is not None


def test_balancer_sweep_covers_every_strategy():
    from repro.core.strategies import strategy_names
    from repro.experiments import balancer_sweep
    specs = balancer_sweep(steps=2)
    assert [s.policy.balancer for s in specs] == strategy_names()
    assert all(s.name == "abl_balancers" for s in specs)
    assert all(s.num_steps == 2 for s in specs)


def test_hetero_drift_spec_shape():
    spec = build("hetero_drift", nodes=4, steps=5, balancer="greedy")
    drift = spec.cluster.drift
    assert drift is not None
    # the drift reverses the start rates mid-run
    assert drift.rates_end == spec.cluster.speed_rates[::-1]
    assert 0 < drift.start < drift.stop
    assert spec.policy.balancer == "greedy"
    assert spec.policy.build() is not None
    assert build("hetero_drift", balanced=False).policy.build() is None


def test_churn_scenario_shapes():
    spec = build("hetero_churn", nodes=4, steps=8, balancer="greedy")
    faults = spec.cluster.faults
    assert faults is not None
    kinds = [e.kind for e in faults.events]
    assert kinds == ["straggle", "fail", "join"]  # time-sorted
    assert faults.events[-1].node == 4  # joiner id after the initial 4
    assert spec.policy.balancer == "greedy"
    assert build("hetero_churn", balanced=False).policy.build() is None

    golden = build("fault_recovery")
    # everything pinned so the committed golden record is invariant
    # under the CI backend/balancer matrices
    assert golden.policy.balancer == "tree"
    assert golden.kernel_backend == "direct"
    assert golden.compute_numerics and golden.track_error
    assert [e.kind for e in golden.cluster.faults.events] == ["fail"]

    tail = build("straggler_tail")
    assert all(e.kind == "straggle" for e in tail.cluster.faults.events)
    assert tail.policy.kind == "threshold"


def test_overrides_reach_the_spec():
    spec = build("fig11_strong_distributed", mesh=64, sd_axis=4, nodes=2,
                 partitioner="metis", steps=3)
    assert spec.mesh.nx == 64
    assert spec.cluster.num_nodes == 2
    assert spec.partition.method == "metis"
    assert spec.num_steps == 3
    with pytest.raises(ValueError):
        build("fig11_strong_distributed", partitioner="magic")
