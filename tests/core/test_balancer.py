"""Tests for the Algorithm 1 driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import IntervalPolicy, NeverBalance, ThresholdPolicy
from repro.core.strategies import make_strategy, strategy_names
from repro.mesh.subdomain import SubdomainGrid
from repro.partition.graph import grid_dual_graph
from repro.partition.metrics import parts_are_contiguous


def make(sds=4):
    # pin the paper's algorithm: these tests assert Algorithm-1-specific
    # outcomes
    sg = SubdomainGrid(4 * sds, 4 * sds, sds, sds)
    return sg, make_strategy("tree", sg)


def block_parts(sds, nodes):
    from repro.partition.geometric import block_partition
    return block_partition(sds, sds, nodes)


class TestBalanceStep:
    def test_balanced_cluster_is_noop(self):
        sg, lb = make()
        parts = block_parts(4, 4)
        res = lb.balance_step(parts, 4, busy_times=[1.0, 1.0, 1.0, 1.0])
        assert not res.triggered
        assert res.sds_moved == 0
        assert np.array_equal(res.parts_before, res.parts_after)

    def test_fast_node_receives_sds(self):
        """Node 3 finishing its 4 SDs in 1/4 the time must gain SDs."""
        sg, lb = make()
        parts = block_parts(4, 4)
        res = lb.balance_step(parts, 4, busy_times=[4.0, 4.0, 4.0, 1.0])
        assert res.triggered
        counts = np.bincount(res.parts_after, minlength=4)
        assert counts[3] > 4

    def test_sd_count_conserved(self):
        sg, lb = make()
        parts = block_parts(4, 4)
        res = lb.balance_step(parts, 4, busy_times=[4.0, 2.0, 1.0, 0.5])
        assert len(res.parts_after) == 16
        assert set(np.unique(res.parts_after)) <= {0, 1, 2, 3}

    def test_reaches_integer_targets_for_2x_speed(self):
        """Speeds (1,1,4,4) on 16 SDs -> targets (2,2,6,6)."""
        sg, lb = make()
        parts = block_parts(4, 4)
        # busy = sds/speed: 4/1, 4/1, 4/4, 4/4
        res = lb.balance_step(parts, 4, busy_times=[4.0, 4.0, 1.0, 1.0])
        counts = np.bincount(res.parts_after, minlength=4)
        assert sorted(counts) == [2, 2, 6, 6]

    def test_second_step_after_balance_is_noop(self):
        """Once at the integer targets, the balancer must go quiet."""
        sg, lb = make()
        parts = block_parts(4, 4)
        res1 = lb.balance_step(parts, 4, busy_times=[4.0, 4.0, 1.0, 1.0])
        counts = np.bincount(res1.parts_after, minlength=4).astype(float)
        # new busy times proportional to new load / speed
        speeds = np.array([1.0, 1.0, 4.0, 4.0])
        busy2 = counts / speeds
        res2 = lb.balance_step(res1.parts_after, 4, busy_times=busy2)
        assert res2.sds_moved == 0

    def test_contiguity_preserved(self):
        sg, lb = make(sds=6)
        parts = block_parts(6, 4)
        res = lb.balance_step(parts, 4, busy_times=[4.0, 4.0, 1.0, 1.0])
        g = grid_dual_graph(6, 6)
        assert parts_are_contiguous(g, res.parts_after)

    def test_two_nodes_simple_lend(self):
        sg, lb = make()
        parts = np.array([0] * 8 + [1] * 8)
        res = lb.balance_step(parts, 2, busy_times=[1.0, 3.0])
        counts = np.bincount(res.parts_after, minlength=2)
        assert counts[0] > counts[1]
        assert counts.sum() == 16

    def test_work_weighted_balancing(self):
        """Cheap (cracked) SDs on node 0: equal busy times but node 0's
        SDs are cheap; work-aware balancing should still be a no-op when
        *work* is balanced."""
        sg, lb = make()
        parts = np.array([0] * 8 + [1] * 8)
        wf = np.ones(16)
        wf[:8] = 0.5  # node 0 holds 4.0 work, node 1 holds 8.0
        # both nodes same speed: busy proportional to work
        res = lb.balance_step(parts, 2, busy_times=[4.0, 8.0],
                              work_per_sd=wf)
        assert res.triggered
        new_work = np.zeros(2)
        np.add.at(new_work, res.parts_after, wf)
        before = np.zeros(2)
        np.add.at(before, parts, wf)
        assert abs(new_work[0] - new_work[1]) < abs(before[0] - before[1])

    def test_validation(self):
        sg, lb = make()
        parts = block_parts(4, 4)
        with pytest.raises(ValueError, match="busy times"):
            lb.balance_step(parts, 4, busy_times=[1.0, 1.0])
        with pytest.raises(ValueError, match="work_per_sd"):
            lb.balance_step(parts, 4, busy_times=[1.0] * 4,
                            work_per_sd=np.ones(3))

    def test_single_node_noop(self):
        sg, lb = make()
        res = lb.balance_step(np.zeros(16, dtype=int), 1, busy_times=[5.0])
        assert res.sds_moved == 0

    @pytest.mark.parametrize("strategy", strategy_names())
    def test_valid_rounding_moves_nothing(self, strategy):
        """Every node already holds the floor or ceil of its expected
        share, so a step would only trade one valid rounding for another
        (``tree`` used to move 3 SDs here, to ``[16, 17, 16, 15]``)."""
        sg = SubdomainGrid(32, 32, 8, 8)
        from repro.partition.geometric import block_partition
        parts = block_partition(8, 8, 4)
        assert np.bincount(parts).tolist() == [16] * 4
        speeds = np.array([2.875, 2.9375, 2.7578125, 2.7578125])
        res = make_strategy(strategy, sg).balance_step(
            parts, 4, busy_times=16 / speeds)
        assert res.sds_moved == 0
        assert not res.triggered

    @given(speeds=st.lists(st.floats(0.5, 8.0), min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_balancing_reduces_or_keeps_imbalance(self, speeds):
        """Property: one balance step never increases the max busy-time
        spread implied by the SD distribution."""
        k = len(speeds)
        sg = SubdomainGrid(32, 32, 8, 8)
        lb = make_strategy("tree", sg)
        from repro.partition.geometric import block_partition
        parts = block_partition(8, 8, k)
        counts = np.bincount(parts, minlength=k).astype(float)
        speeds_arr = np.asarray(speeds)
        busy = counts / speeds_arr
        res = lb.balance_step(parts, k, busy_times=busy)
        new_counts = np.bincount(res.parts_after, minlength=k).astype(float)
        assert new_counts.sum() == 64
        spread_before = (busy.max() - busy.min())
        busy_after = new_counts / speeds_arr
        spread_after = busy_after.max() - busy_after.min()
        assert spread_after <= spread_before + 1e-9


class TestFig14Scenario:
    def test_highly_imbalanced_5x5_balances_within_3_iterations(self):
        """The paper's Fig. 14: 5x5 SDs, 4 symmetric nodes, highly
        imbalanced start -> nearly balanced within 3 iterations."""
        sg = SubdomainGrid(20, 20, 5, 5)
        lb = make_strategy("tree", sg)
        # highly imbalanced start: node 0 owns almost everything
        parts = np.zeros(25, dtype=np.int64)
        parts[4] = 1    # single SD corners for the others
        parts[20] = 2
        parts[24] = 3
        speed = np.ones(4)
        for _ in range(3):
            counts = np.bincount(parts, minlength=4).astype(float)
            busy = counts / speed
            res = lb.balance_step(parts, 4, busy_times=busy)
            parts = res.parts_after
        counts = np.bincount(parts, minlength=4)
        # 25 SDs over 4 symmetric nodes: ideal is 6/6/6/7
        assert counts.max() - counts.min() <= 2
        assert counts.min() >= 5


class TestPolicies:
    def test_never(self):
        assert not NeverBalance().should_balance(0, [1.0, 5.0])

    def test_interval(self):
        p = IntervalPolicy(3)
        fires = [p.should_balance(s, [1.0]) for s in range(7)]
        assert fires == [False, False, True, False, False, True, False]

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            IntervalPolicy(0)

    def test_threshold_fires_on_spread(self):
        p = ThresholdPolicy(ratio=1.2)
        assert not p.should_balance(0, [1.0, 1.0])
        assert p.should_balance(1, [1.0, 2.0])

    def test_threshold_rate_limit(self):
        """Rate limiting runs against the caller-supplied last-balance
        step — policies themselves are stateless."""
        p = ThresholdPolicy(ratio=1.1, min_interval=5)
        assert p.should_balance(0, [1.0, 2.0], last_balance=None)
        assert not p.should_balance(2, [1.0, 2.0], last_balance=0)  # too soon
        assert p.should_balance(5, [1.0, 2.0], last_balance=0)

    def test_threshold_is_stateless(self):
        """Firing never mutates the policy: the same call repeated gives
        the same answer (the old implementation recorded the step
        internally and would rate-limit the second call)."""
        p = ThresholdPolicy(ratio=1.1, min_interval=5)
        assert p.should_balance(0, [1.0, 2.0])
        assert p.should_balance(0, [1.0, 2.0])
        assert p.should_balance(1, [1.0, 2.0], last_balance=None)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(ratio=0.9)
        with pytest.raises(ValueError):
            ThresholdPolicy(min_interval=0)


class TestPolicyReuseAcrossRuns:
    def test_reused_threshold_policy_does_not_rate_limit_next_run(self):
        """Regression: a ThresholdPolicy object reused for a second
        solver run must behave exactly like a fresh policy — the old
        mutable ``_last_balance`` attribute silently rate-limited the
        next run's first balancing steps."""
        from repro.amt.cluster import ConstantSpeed
        from repro.mesh.grid import UniformGrid
        from repro.partition.geometric import block_partition
        from repro.solver.distributed import DistributedSolver
        from repro.solver.model import NonlocalHeatModel

        grid = UniformGrid(32, 32)
        model = NonlocalHeatModel(epsilon=2 * grid.h)
        sg = SubdomainGrid(32, 32, 4, 4)
        policy = ThresholdPolicy(ratio=1.05, min_interval=4)

        def run_with(p):
            solver = DistributedSolver(
                model, grid, sg, block_parts(4, 4), num_nodes=4,
                speeds=[ConstantSpeed(s) for s in (1e9, 1e9, 2e9, 4e9)],
                compute_numerics=False,
                balancer="tree", policy=p)
            res = solver.run(None, 6)
            return [(step, parts.tolist()) for step, parts in res.parts_history]

        first = run_with(policy)
        again = run_with(policy)           # same object, second run
        fresh = run_with(ThresholdPolicy(ratio=1.05, min_interval=4))
        assert first, "the heterogeneous run must rebalance at least once"
        assert again == fresh == first
