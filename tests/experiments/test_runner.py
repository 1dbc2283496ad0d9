"""Runner contracts: operator cache, spec→solver wiring, sweep parity."""

import numpy as np
import pytest

from repro.experiments import (ClusterSpec, MeshSpec, PartitionSpec,
                               PolicySpec, ScenarioSpec, build, build_solver,
                               build_work_factors, cached_operator,
                               clear_operator_cache, operator_cache_info,
                               run_scenario, run_sweep)


class TestOperatorCache:
    def test_repeated_points_share_one_assembly(self):
        clear_operator_cache()
        a = cached_operator(32, 32, 8.0)
        b = cached_operator(32, 32, 8.0)
        assert a is b
        info = operator_cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_distinct_points_get_distinct_operators(self):
        assert cached_operator(32, 32, 8.0) is not cached_operator(32, 32, 4.0)
        assert cached_operator(32, 32, 8.0) is not cached_operator(16, 16, 8.0)

    def test_cached_operator_matches_cold_construction(self):
        from repro.mesh.grid import UniformGrid
        from repro.solver.kernel import NonlocalOperator
        from repro.solver.model import NonlocalHeatModel
        grid = UniformGrid(16, 16)
        cold = NonlocalOperator(NonlocalHeatModel(epsilon=4 * grid.h), grid)
        warm = cached_operator(16, 16, 4.0)
        assert warm.radius == cold.radius
        np.testing.assert_array_equal(warm.stencil.mask, cold.stencil.mask)

    def test_backend_is_part_of_the_cache_key(self):
        """Scenarios pinning different kernel backends must never share
        an operator — the backend carries per-shape state."""
        clear_operator_cache()
        direct = cached_operator(32, 32, 8.0, "direct")
        fft = cached_operator(32, 32, 8.0, "fft")
        sparse = cached_operator(32, 32, 8.0, "sparse")
        assert len({id(direct), id(fft), id(sparse)}) == 3
        assert (direct.backend_name, fft.backend_name,
                sparse.backend_name) == ("direct", "fft", "sparse")
        assert cached_operator(32, 32, 8.0, "fft") is fft
        assert operator_cache_info().misses == 3

    def test_default_and_explicit_auto_share_one_entry(self):
        clear_operator_cache()
        assert cached_operator(32, 32, 8.0) is cached_operator(
            32, 32, 8.0, "auto")

    def test_auto_shares_the_entry_of_its_resolution(self):
        """The key is fully resolved: a backend sweep over auto + the
        name auto resolves to must not rebuild the same operator."""
        clear_operator_cache()
        assert cached_operator(32, 32, 8.0) is cached_operator(
            32, 32, 8.0, "fft")         # R = 8 -> fft
        assert cached_operator(32, 32, 2.0) is cached_operator(
            32, 32, 2.0, "direct")      # R = 2 -> direct
        assert operator_cache_info().misses == 2


class TestRecordDependsOnlyOnItsSpec:
    """A record is reproducible from its spec alone: the environment
    variables that once rerouted ``"auto"`` requests are ignored."""

    STALE_OVERRIDES = {"REPRO_BALANCER": "diffusion",
                       "REPRO_KERNEL_BACKEND": "sparse",
                       "REPRO_COST_MODEL": "hierarchy"}

    def test_auto_specs_reproduce_in_any_environment(self, monkeypatch):
        for var in self.STALE_OVERRIDES:
            monkeypatch.delenv(var, raising=False)
        scenario = build("hetero_drift", steps=4)
        service = build("service_poisson")
        clean = [run_scenario(scenario), run_scenario(service)]
        for var, value in self.STALE_OVERRIDES.items():
            monkeypatch.setenv(var, value)
        clear_operator_cache()
        dirty = [run_scenario(scenario), run_scenario(service)]
        assert dirty == clean
        rec, svc = dirty
        assert scenario.balancer == scenario.kernel_backend == "auto"
        assert scenario.cost_model == service.cost_model == "auto"
        assert rec.balancer_resolved == "tree"
        assert rec.backend_resolved == "fft"      # R = 8 -> fft
        assert rec.cost_model_resolved == svc.cost_model_resolved == "flat"
        assert cached_operator(32, 32, 8.0).backend_name == "fft"


class TestBuildSolver:
    def test_solver_uses_the_cached_operator(self):
        spec = build("fig11_strong_distributed", mesh=32, sd_axis=4,
                     nodes=2, steps=1)
        solver = build_solver(spec)
        assert solver.operator is cached_operator(32, 32, 8.0)
        assert solver.num_nodes == 2

    def test_balancing_wiring(self):
        spec = build("fig14_load_balance", steps=1)
        solver = build_solver(spec)
        assert solver.balancer is not None
        # the policy decides whether balancing runs; the strategy is
        # always wired (name resolved from spec.policy.balancer)
        assert solver.balancer.name == "tree"
        off = spec.replace(policy=PolicySpec())
        off_solver = build_solver(off)
        assert not off_solver.run(None, 1).balance_events

    def test_balancer_pinned_by_spec(self):
        spec = build("fig14_load_balance", steps=1).with_balancer("greedy")
        assert build_solver(spec).balancer.name == "greedy"

    def test_work_factors_from_cracks(self):
        spec = build("crack_hetero", steps=1)
        wf = build_work_factors(spec)
        assert wf is not None and (wf < 1.0).any()
        assert build_work_factors(build("fig14_load_balance")) is None

    def test_serial_spec_rejected(self):
        with pytest.raises(ValueError):
            build_solver(build("solve_serial"))

    def test_spec_kernel_backend_reaches_the_solver(self):
        spec = build("fig11_strong_distributed", mesh=32, sd_axis=4,
                     nodes=2, steps=1).replace(kernel_backend="sparse")
        solver = build_solver(spec)
        assert solver.operator.backend_name == "sparse"
        assert solver.operator is cached_operator(32, 32, 8.0, "sparse")

    def test_abl_backends_scenario_sweeps_the_backend(self):
        from repro.solver.backends import backend_names
        for name in backend_names():
            spec = build("abl_backends", backend=name, mesh=32, sd_axis=4,
                         nodes=2, steps=1)
            assert spec.kernel_backend == name
            assert build_solver(spec).operator.backend_name == name

    def test_mismatched_operator_rejected(self):
        from repro.mesh.grid import UniformGrid
        from repro.solver.model import NonlocalHeatModel
        from repro.solver.serial import SerialSolver
        grid = UniformGrid(16, 16)
        model = NonlocalHeatModel(epsilon=2 * grid.h)
        with pytest.raises(ValueError):  # wrong horizon
            SerialSolver(model, grid, operator=cached_operator(16, 16, 8.0))
        with pytest.raises(ValueError):  # wrong grid
            SerialSolver(model, grid, operator=cached_operator(32, 32, 2.0))


class TestRunScenario:
    def test_deterministic(self):
        spec = build("fig11_strong_distributed", mesh=64, sd_axis=4,
                     nodes=4, steps=3)
        assert run_scenario(spec) == run_scenario(spec)

    def test_numeric_run_tracks_error(self):
        rec = run_scenario(build("quickstart", nx=16, sd_axis=2, nodes=2,
                                 steps=2))
        assert rec.errors is not None and len(rec.errors) == 3  # e_0..e_2
        assert rec.total_error == pytest.approx(sum(rec.errors))

    def test_distributed_numerics_match_serial(self, solve_manufactured):
        """The engine preserves the repo's core invariant: schedule is
        virtual, temperatures are real and equal to the serial path."""
        rec = run_scenario(build("quickstart", nx=16, sd_axis=2, nodes=2,
                                 steps=4))
        ref = solve_manufactured(16, eps_factor=8.0, num_steps=4)
        assert rec.total_error == pytest.approx(ref.total_error, rel=1e-12)

    def test_backend_changes_numerics_execution_only(self):
        """Across backends: the virtual schedule is bit-identical (task
        costs are neighbor-count-based) and the temperatures agree to
        rounding.  Flat-model property by construction — the hierarchy
        model prices backends differently on purpose — so the cost
        model is pinned (keeps the CI costmodel-smoke leg green)."""
        from repro.solver.backends import backend_names
        recs = [run_scenario(build("quickstart", nx=16, sd_axis=2, nodes=2,
                                   steps=3).replace(kernel_backend=b,
                                                    cost_model="flat"))
                for b in backend_names()]
        for rec in recs[1:]:
            assert rec.makespan == recs[0].makespan
            assert rec.step_durations == recs[0].step_durations
            assert rec.total_error == pytest.approx(recs[0].total_error,
                                                    rel=1e-10)

    def test_record_carries_the_resolved_backend(self):
        from repro.solver.backends import backend_names
        pinned = run_scenario(build("quickstart", nx=16, sd_axis=2, nodes=2,
                                    steps=1).replace(kernel_backend="sparse"))
        assert pinned.backend_resolved == "sparse"
        auto = run_scenario(build("quickstart", nx=16, sd_axis=2, nodes=2,
                                  steps=1))
        assert auto.spec["kernel_backend"] == "auto"
        assert auto.backend_resolved == "fft"  # eps = 8h -> R = 8
        serial = run_scenario(build("solve_serial", nx=16, eps_factor=2.0,
                                    steps=1))
        assert serial.backend_resolved in backend_names()

    def test_record_spec_round_trips(self):
        spec = build("fig09_strong_shared", mesh=32, sd_axis=2, cpus=2,
                     steps=1)
        rec = run_scenario(spec)
        assert ScenarioSpec.from_dict(rec.spec) == spec


class TestOwnershipTimeline:
    def test_one_frame_per_step_plus_initial(self):
        from repro.experiments import ownership_timeline
        spec = build("fig14_load_balance", steps=3)
        rec = run_scenario(spec)
        frames = ownership_timeline(spec, rec)
        assert len(frames) == 4  # initial + one per timestep
        np.testing.assert_array_equal(
            frames[0], spec.partition.build(5, 5, 4))
        np.testing.assert_array_equal(frames[-1], rec.final_parts)

    def test_zero_move_steps_carry_forward(self):
        from repro.experiments import ownership_timeline
        # enough extra steps that later sweeps are already balanced;
        # pinned to the tree strategy, whose integer-target apportionment
        # guarantees it goes quiet once converged
        spec = build("fig14_load_balance", steps=6).with_balancer("tree")
        rec = run_scenario(spec)
        frames = ownership_timeline(spec, rec)
        assert len(frames) == 7
        np.testing.assert_array_equal(frames[-1], frames[-2])


class TestRunSweep:
    def _specs(self):
        specs = [build("fig11_strong_distributed", mesh=64, sd_axis=4,
                       nodes=n, steps=2) for n in (1, 2, 4)]
        specs.append(build("fig14_load_balance", steps=2))
        return specs

    def test_serial_order_matches_input(self):
        recs = run_sweep(self._specs(), serial=True)
        assert [r.scenario for r in recs] == [
            "fig11_strong_distributed"] * 3 + ["fig14_load_balance"]

    def test_processes_bit_identical_to_serial(self):
        """The acceptance contract: a 4-point sweep through the
        ProcessPoolExecutor equals serial execution result-for-result."""
        specs = self._specs()
        serial = run_sweep(specs, serial=True)
        parallel = run_sweep(specs, serial=False, max_workers=2)
        assert parallel == serial  # RunRecord dataclass equality, all fields

    def test_invalid_point_fails_at_construction(self):
        with pytest.raises(ValueError):
            build("fig11_strong_distributed", mesh=64, sd_axis=1, nodes=4)
