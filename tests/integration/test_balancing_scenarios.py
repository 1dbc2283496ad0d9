"""Integration: end-to-end load-balancing scenarios on the full stack.

Partitioner -> decomposition -> simulated cluster -> busy-time counters
-> Algorithm 1 -> migration, across the imbalance sources the paper
motivates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.cluster import ConstantSpeed
from repro.core.policy import IntervalPolicy, ThresholdPolicy
from repro.core.strategies import make_strategy
from repro.mesh.grid import UniformGrid
from repro.mesh.subdomain import SubdomainGrid
from repro.models.crack import Crack, crack_work_factors
from repro.models.workload import step_interference
from repro.partition.graph import grid_dual_graph
from repro.partition.kway import partition_sd_grid
from repro.partition.metrics import parts_are_contiguous
from repro.solver.distributed import DistributedSolver
from repro.solver.model import NonlocalHeatModel


def build(mesh=128, sds=8, nodes=4, **solver_kw):
    grid = UniformGrid(mesh, mesh)
    model = NonlocalHeatModel(epsilon=8 * grid.h)
    sd_grid = SubdomainGrid(mesh, mesh, sds, sds)
    parts = partition_sd_grid(sds, sds, nodes, seed=0)
    solver = DistributedSolver(model, grid, sd_grid, parts,
                               num_nodes=nodes, compute_numerics=False,
                               **solver_kw)
    return sd_grid, solver


class TestStaticHeterogeneity:
    def test_balancer_matches_speed_ratios(self):
        """SD shares converge to the speed ratios (eq. 10)."""
        speeds = (1e9, 1e9, 2e9, 4e9)
        sd_grid, solver = build(
            speeds=[ConstantSpeed(s) for s in speeds],
            balancer="auto",
            policy=IntervalPolicy(1))
        solver.run(None, 12)
        counts = np.bincount(solver.parts, minlength=4)
        expected = 64 * np.array(speeds) / sum(speeds)
        assert np.all(np.abs(counts - expected) <= 2.0)

    def test_final_partition_contiguous(self):
        sd_grid, solver = build(
            speeds=[ConstantSpeed(s) for s in (1e9, 1e9, 2e9, 4e9)],
            balancer="auto",
            policy=IntervalPolicy(1))
        solver.run(None, 12)
        g = grid_dual_graph(8, 8)
        assert parts_are_contiguous(g, solver.parts)

    def test_makespan_gain_scales_with_heterogeneity(self):
        """More heterogeneous clusters gain more from balancing."""
        def gain(speed_set):
            base = build(speeds=[ConstantSpeed(s) for s in speed_set])[1]
            t_off = base.run(None, 10).makespan
            bal = build(speeds=[ConstantSpeed(s) for s in speed_set],
                        balancer="auto",
                        policy=IntervalPolicy(1))[1]
            t_on = bal.run(None, 10).makespan
            return t_off / t_on

        mild = gain((1e9, 1e9, 1.2e9, 1.2e9))
        harsh = gain((1e9, 1e9, 4e9, 4e9))
        assert harsh > mild
        assert harsh > 1.5


class TestDynamicInterference:
    def test_threshold_policy_reacts_to_slowdown(self):
        """A mid-run slowdown triggers redistribution away from the
        afflicted node, and makespan beats the static baseline."""
        # per-step compute ~ 64 SDs * 256 DP * ~788 flops/DP / 4 nodes
        step_guess = 64 * 256 * 788 / 1e9 / 4
        window = (3 * step_guess, 20 * step_guess)

        def speeds():
            return [step_interference(1e9, *window, slowdown=0.3),
                    ConstantSpeed(1e9), ConstantSpeed(1e9),
                    ConstantSpeed(1e9)]

        _, static = build(speeds=speeds())
        t_static = static.run(None, 15).makespan
        sd_grid, balanced = build(
            speeds=speeds(),
            balancer="auto",
            policy=ThresholdPolicy(ratio=1.1))
        res = balanced.run(None, 15)
        assert res.parts_history, "no redistribution happened"
        assert res.makespan < t_static
        # node 0 sheds SDs at some point during the interference window
        min_n0 = min(int(np.bincount(p, minlength=4)[0])
                     for _, p in res.parts_history)
        assert min_n0 < 16


class TestCrackScenario:
    def test_crack_rows_end_up_with_more_sds(self):
        grid = UniformGrid(128, 128)
        model = NonlocalHeatModel(epsilon=8 * grid.h)
        sd_grid = SubdomainGrid(128, 128, 8, 8)
        cracks = [Crack([(0.02, 0.1875), (0.98, 0.1875)]),
                  Crack([(0.02, 0.3125), (0.98, 0.3125)])]
        wf = crack_work_factors(sd_grid, cracks, horizon=2 * model.epsilon,
                                floor=0.2)
        assert (wf < 1).sum() > 8
        parts = np.repeat([0, 0, 1, 1, 2, 2, 3, 3], 8)  # 2 SD rows per node
        solver = DistributedSolver(
            model, grid, sd_grid, parts, num_nodes=4, work_factors=wf,
            compute_numerics=False, balancer="auto",
            policy=IntervalPolicy(1))
        res = solver.run(None, 10)
        counts = np.bincount(solver.parts, minlength=4)
        # node 0 (cracked rows 0-1) and node 1 (cracked rows 2-3 partly)
        # absorb extra SDs; the fully intact nodes shed them
        assert counts[0] > 16
        assert counts.sum() == 64
        assert res.makespan > 0


class TestExplicitNoneBalancer:
    def test_none_disables_balancing_even_with_active_policy(self):
        """The pre-strategy contract: ``balancer=None`` means disabled,
        even when the policy fires — only the omitted argument means
        the auto strategy."""
        _, solver = build(speeds=[ConstantSpeed(s)
                                  for s in (1e9, 1e9, 2e9, 4e9)],
                          balancer=None, policy=IntervalPolicy(1))
        res = solver.run(None, 4)
        assert not res.balance_events
        assert not res.parts_history
        assert res.migration_bytes == 0


class TestDriftWorkload:
    """The hetero_drift scenario: node speeds ramp to the reversed
    assignment mid-run, so any one-shot distribution is wrong for most
    of the run.  Every adaptive strategy must beat NeverBalance."""

    @pytest.mark.parametrize("strategy", ["tree", "diffusion", "greedy",
                                          "repartition"])
    def test_every_adaptive_strategy_beats_never(self, strategy):
        from repro.experiments import build, run_scenario
        base = run_scenario(build("hetero_drift", steps=12, balanced=False))
        rec = run_scenario(build("hetero_drift", steps=12,
                                 balancer=strategy))
        assert rec.balancer_resolved == strategy
        assert rec.balance_events, "the per-step policy must have fired"
        assert base.makespan / rec.makespan >= 1.10, (
            f"{strategy} must beat NeverBalance by >= 10% under drift")

    def test_oneshot_balancing_loses_to_adaptive(self):
        """Balancing once at the start (and then freezing) matches the
        *initial* speeds — exactly wrong after the drift completes."""
        from repro.experiments import PolicySpec, build, run_scenario
        adaptive = run_scenario(build("hetero_drift", steps=10,
                                      balancer="tree"))
        oneshot = run_scenario(build("hetero_drift", steps=10).replace(
            policy=PolicySpec(kind="threshold", ratio=1.0,
                              min_interval=10 ** 9, balancer="tree")))
        assert len(oneshot.balance_events) == 1
        assert adaptive.makespan < oneshot.makespan


class TestRandomizedBalancing:
    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_balance_from_random_contiguous_start(self, seed):
        """From any partition, iterated Algorithm 1 on symmetric nodes
        approaches the uniform distribution within four sweeps without
        losing SDs (pinned to the tree strategy: the 4-sweep bound is
        its global-rebalance guarantee; diffusion converges slower by
        design)."""
        sg = SubdomainGrid(32, 32, 8, 8)
        lb = make_strategy("tree", sg)
        parts = partition_sd_grid(8, 8, 4, seed=seed,
                                  target_weights=[8, 1, 1, 1])
        for _ in range(4):
            busy = np.maximum(
                np.bincount(parts, minlength=4).astype(float), 1e-9)
            parts = lb.balance_step(parts, 4, busy).parts_after
        counts = np.bincount(parts, minlength=4)
        assert counts.sum() == 64
        assert counts.max() - counts.min() <= 2
