"""The pluggable balancing-strategy subsystem.

Covers the ``auto`` default (the shared registry semantics are tested
once, in ``tests/test_name_registry.py``), the frozen BalanceResult
value object, the uniform-work helper, golden agreement of the ``tree``
strategy with the pre-refactor Algorithm 1, and hypothesis property tests asserting the strategy
invariants (conservation, validity, determinism, no-op below threshold)
for every registered strategy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import (BalanceEvent, BalanceResult,
                                   auto_strategy_name, is_uniform_work,
                                   make_strategy, strategy_names)
from repro.mesh.subdomain import SubdomainGrid
from repro.partition.geometric import block_partition

ALL = ("diffusion", "greedy", "repartition", "tree")


def star_parts():
    """Fig. 7 star: hub node 2 adjacent to leaves 0, 1, 3 (by column)."""
    owner_of_column = {0: 1, 1: 2, 2: 0, 3: 2, 4: 3}
    return np.array([owner_of_column[i % 5] for i in range(25)],
                    dtype=np.int64)


class TestRegistry:
    def test_all_strategies_registered(self):
        assert strategy_names() == list(ALL)

    def test_auto_default_is_the_papers_algorithm(self):
        assert auto_strategy_name() == "tree"
        sg = SubdomainGrid(16, 16, 4, 4)
        assert make_strategy("auto", sg).name == "tree"


class TestUniformWorkHelper:
    def test_none_is_uniform(self):
        assert is_uniform_work(None)

    def test_empty_is_uniform(self):
        assert is_uniform_work([])
        assert is_uniform_work(np.array([]))

    def test_scalar_and_single_entry_are_uniform(self):
        assert is_uniform_work(3.0)
        assert is_uniform_work([2.5])

    def test_equal_entries_are_uniform(self):
        assert is_uniform_work([2.0, 2.0, 2.0])
        assert is_uniform_work(np.full(7, 0.25))

    def test_heterogeneous_entries_are_not(self):
        assert not is_uniform_work([1.0, 2.0])
        assert not is_uniform_work([1.0, 1.0, 1.0 + 1e-3])


class TestBalanceResult:
    def run_star(self):
        sg = SubdomainGrid(20, 20, 5, 5)
        return make_strategy("tree", sg).balance_step(
            star_parts(), 4, [5.0, 2.5, 10.0, 10.0])

    def test_frozen(self):
        res = self.run_star()
        with pytest.raises(AttributeError):
            res.triggered = False
        with pytest.raises(ValueError):
            res.parts_after[0] = 3  # arrays are read-only views

    def test_imbalance_after_computed(self):
        res = self.run_star()
        # expected shares are fixed within a step: after - before must
        # equal the realized load delta
        k = 4
        load_b = np.bincount(res.parts_before, minlength=k).astype(float)
        load_a = np.bincount(res.parts_after, minlength=k).astype(float)
        np.testing.assert_allclose(
            res.imbalance_after, res.imbalance_before - (load_a - load_b))
        # the step must have settled every node to within one SD
        assert np.abs(res.imbalance_after).max() < np.abs(
            res.imbalance_before).max()

    def test_noop_imbalance_after_equals_before(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        res = make_strategy("tree", sg).balance_step(
            block_partition(4, 4, 4), 4, [1.0] * 4)
        assert not res.triggered
        np.testing.assert_array_equal(res.imbalance_after,
                                      res.imbalance_before)

    def test_repr_is_stable(self):
        res = self.run_star()
        r = repr(res)
        assert r == repr(self.run_star())  # deterministic, value-based
        assert "0x" not in r               # no object addresses
        assert "strategy='tree'" in r
        assert f"sds_moved={res.sds_moved}" in r


class TestBalanceEvent:
    def test_round_trip(self):
        e = BalanceEvent(step=3, strategy="tree", sds_moved=4,
                         migration_bytes=2048, imbalance_before=1.4,
                         imbalance_after=1.05)
        assert BalanceEvent.from_dict(e.to_dict()) == e


class TestTreeGoldenAgreement:
    """``tree`` reproduces the pre-refactor Algorithm 1 bit-for-bit.

    The expected values were captured from the seed implementation
    (Algorithm 1 before the strategy extraction) on the Fig. 7 star
    example and the standard 4x4 block case.
    """

    def test_fig7_star_transfers(self):
        sg = SubdomainGrid(20, 20, 5, 5)
        res = make_strategy("tree", sg).balance_step(
            star_parts(), 4, [5.0, 2.5, 10.0, 10.0])
        assert res.triggered and res.sds_moved == 7
        assert res.parts_after.tolist() == [
            1, 1, 0, 2, 2, 1, 1, 0, 2, 2, 1, 0, 0, 2, 3,
            1, 1, 0, 2, 3, 1, 1, 0, 2, 3]
        assert [(p.donor, p.receiver, p.requested, list(p.sds))
                for p in res.plans] == [
            (3, 2, 1, [4]), (3, 2, 1, [9]), (2, 0, 1, [11]),
            (2, 1, 1, [6]), (2, 1, 1, [16]), (2, 1, 1, [1]),
            (2, 1, 1, [21])]
        np.testing.assert_allclose(res.imbalance_before, [
            0.5555555555555554, 6.111111111111111,
            -4.444444444444445, -2.2222222222222223])

    def test_fig7_star_work_weighted_transfers(self):
        sg = SubdomainGrid(20, 20, 5, 5)
        wf = np.ones(25)
        wf[:10] = 0.5
        res = make_strategy("tree", sg).balance_step(
            star_parts(), 4, [5.0, 2.5, 10.0, 10.0], work_per_sd=wf)
        assert res.parts_after.tolist() == [
            1, 1, 0, 2, 2, 1, 1, 0, 2, 2, 1, 0, 0, 2, 2,
            1, 1, 0, 2, 3, 1, 1, 0, 2, 3]
        assert [(p.donor, p.receiver, list(p.sds)) for p in res.plans] == [
            (3, 2, [4]), (3, 2, [9]), (3, 2, [14]), (2, 0, [11]),
            (2, 1, [6]), (2, 1, [16]), (2, 1, [1]), (2, 1, [21])]

    def test_block_2x_speed_transfers(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        res = make_strategy("tree", sg).balance_step(
            block_partition(4, 4, 4), 4, [4.0, 4.0, 1.0, 1.0])
        assert res.parts_after.tolist() == [
            0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3, 2, 2, 3, 3]
        assert [(p.donor, p.receiver, list(p.sds)) for p in res.plans] == [
            (0, 2, [4]), (0, 2, [5]), (1, 3, [6]), (1, 3, [7])]

    def test_auto_runs_the_same_algorithm(self):
        sg = SubdomainGrid(20, 20, 5, 5)
        busy = [5.0, 2.5, 10.0, 10.0]
        tree = make_strategy("tree", sg).balance_step(star_parts(), 4, busy)
        auto = make_strategy("auto", sg).balance_step(star_parts(), 4, busy)
        assert auto.strategy == "tree"
        assert auto.parts_after.tolist() == tree.parts_after.tolist()
        assert ([(p.donor, p.receiver, list(p.sds)) for p in auto.plans]
                == [(p.donor, p.receiver, list(p.sds)) for p in tree.plans])


# ---------------------------------------------------------------------------
# property tests: the invariants every registered strategy must keep
# ---------------------------------------------------------------------------

def _random_setup(draw):
    k = draw(st.integers(2, 4))
    parts = np.array(draw(st.lists(st.integers(0, k - 1), min_size=36,
                                   max_size=36)), dtype=np.int64)
    # every node must own at least one SD (the solver invariant)
    for n in range(k):
        parts[n] = n
    busy = np.array(draw(st.lists(
        st.floats(0.1, 50.0, allow_nan=False), min_size=k, max_size=k)))
    return k, parts, busy


@pytest.mark.parametrize("name", ALL)
class TestStrategyInvariants:
    SG = SubdomainGrid(24, 24, 6, 6)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_conservation_and_validity(self, name, data):
        """Every SD stays owned by a valid node; SDs are never created,
        destroyed, or relabeled wholesale."""
        k, parts, busy = _random_setup(data.draw)
        res = make_strategy(name, self.SG).balance_step(parts, k, busy)
        assert len(res.parts_after) == 36
        assert res.parts_after.min() >= 0
        assert res.parts_after.max() < k
        # the result reports exactly the delta between before and after
        assert np.array_equal(res.parts_before, parts)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_deterministic(self, name, data):
        k, parts, busy = _random_setup(data.draw)
        strategy = make_strategy(name, self.SG)
        first = strategy.balance_step(parts, k, busy)
        second = strategy.balance_step(parts, k, busy)
        assert np.array_equal(first.parts_after, second.parts_after)
        assert repr(first) == repr(second)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_work_weighted_conservation(self, name, data):
        k, parts, busy = _random_setup(data.draw)
        wf = np.array(data.draw(st.lists(
            st.floats(0.25, 2.0, allow_nan=False), min_size=36,
            max_size=36)))
        res = make_strategy(name, self.SG).balance_step(
            parts, k, busy, work_per_sd=wf)
        assert len(res.parts_after) == 36
        assert set(np.unique(res.parts_after)) <= set(range(k))

    def test_noop_below_threshold(self, name):
        """A balanced cluster (equal shares, equal busy) must not move."""
        parts = block_partition(6, 6, 4)
        res = make_strategy(name, self.SG).balance_step(
            parts, 4, [9.0, 9.0, 9.0, 9.0])
        assert not res.triggered
        assert res.sds_moved == 0
        assert np.array_equal(res.parts_before, res.parts_after)

    def test_single_node_noop(self, name):
        res = make_strategy(name, self.SG).balance_step(
            np.zeros(36, dtype=np.int64), 1, [5.0])
        assert res.sds_moved == 0

    def test_imbalance_is_reduced(self, name):
        """From the 2x-speed block configuration every strategy must cut
        the predicted busy-time spread."""
        parts = block_partition(6, 6, 4)
        res = make_strategy(name, self.SG).balance_step(
            parts, 4, [9.0, 9.0, 2.25, 2.25])
        assert res.triggered
        assert res.imbalance_ratio_after < res.imbalance_ratio_before

    def test_validation_errors(self, name):
        strategy = make_strategy(name, self.SG)
        with pytest.raises(ValueError, match="busy times"):
            strategy.balance_step(block_partition(6, 6, 4), 4, [1.0, 1.0])
        with pytest.raises(ValueError, match="work_per_sd"):
            strategy.balance_step(block_partition(6, 6, 4), 4, [1.0] * 4,
                                  work_per_sd=np.ones(3))


@pytest.mark.parametrize("name", ALL)
class TestActiveMaskInvariants:
    """Elastic-cluster invariants: every strategy must tolerate a
    changing active-node set (failures evacuated, joiners seeded) while
    keeping the fixed-membership behavior bit-identical when every node
    is active."""

    SG = SubdomainGrid(24, 24, 6, 6)

    def _setup(self, draw):
        k = draw(st.integers(2, 5))
        parts = np.array(draw(st.lists(st.integers(0, k - 1), min_size=36,
                                       max_size=36)), dtype=np.int64)
        for n in range(k):
            parts[n] = n
        busy = np.array(draw(st.lists(
            st.floats(0.1, 50.0, allow_nan=False), min_size=k, max_size=k)))
        # at least one node stays active
        active = np.array(draw(st.lists(st.booleans(), min_size=k,
                                        max_size=k)))
        active[draw(st.integers(0, k - 1))] = True
        return k, parts, busy, active

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_no_sd_on_inactive_and_conserved(self, name, data):
        """After any step with an active mask: every SD owned by an
        active node, none lost or duplicated."""
        k, parts, busy, active = self._setup(data.draw)
        res = make_strategy(name, self.SG).balance_step(
            parts, k, busy, active=active)
        assert len(res.parts_after) == 36
        owners = np.unique(res.parts_after)
        assert set(owners) <= set(np.nonzero(active)[0])
        if not active[parts].all():
            assert res.recovery and res.triggered

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_integer_targets_conserved_over_active_subset(self, name, data):
        """Regression (ISSUE 4): integer-target apportionment must be
        computed over the shrunken/grown active set, so the targets sum
        to the SD count — a full-vector apportionment can hand leftover
        SDs to dead nodes and strand them."""
        k, parts, busy, active = self._setup(data.draw)
        strategy = make_strategy(name, self.SG)
        res = strategy.balance_step(parts, k, busy, active=active)
        counts = np.bincount(res.parts_after, minlength=k)
        assert counts.sum() == 36
        assert counts[~active].sum() == 0

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_all_active_mask_equals_legacy(self, name, data):
        """An all-True mask must reproduce the fixed-membership result
        bit for bit (the solver passes None only when no faults are
        configured — the two paths may never diverge)."""
        k, parts, busy, _ = self._setup(data.draw)
        strategy = make_strategy(name, self.SG)
        legacy = strategy.balance_step(parts, k, busy)
        masked = strategy.balance_step(parts, k, busy,
                                       active=np.ones(k, dtype=bool))
        assert np.array_equal(legacy.parts_after, masked.parts_after)
        assert legacy.imbalance_ratio_after == masked.imbalance_ratio_after
        assert legacy.triggered == masked.triggered
        assert not masked.recovery

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_deterministic_under_masks(self, name, data):
        k, parts, busy, active = self._setup(data.draw)
        strategy = make_strategy(name, self.SG)
        first = strategy.balance_step(parts, k, busy, active=active)
        second = strategy.balance_step(parts, k, busy, active=active)
        assert np.array_equal(first.parts_after, second.parts_after)
        assert repr(first) == repr(second)

    def test_joiner_seeded_and_absorbed(self, name):
        """A fresh joiner (active, zero SDs) must end up owning work."""
        parts = block_partition(6, 6, 4)  # node 4 owns nothing
        res = make_strategy(name, self.SG).balance_step(
            parts, 5, [9.0, 9.0, 9.0, 9.0, 0.0],
            active=np.ones(5, dtype=bool))
        counts = np.bincount(res.parts_after, minlength=5)
        assert counts[4] > 0
        assert res.recovery  # seeding is a topology reaction

    def test_evacuation_is_forced_below_threshold(self, name):
        """A dead node's SDs must leave even when the residual is below
        the trigger threshold (evacuation is correctness, not policy)."""
        parts = block_partition(6, 6, 4)
        active = np.array([True, True, True, False])
        res = make_strategy(name, self.SG).balance_step(
            parts, 4, [9.0] * 4, active=active)
        assert res.triggered and res.recovery
        assert np.all(res.parts_after != 3)

    def test_active_set_smaller_than_sds_per_node(self, name):
        """Shrinking to a single active node: it must absorb all 36
        SDs (the integer target equals the whole mesh)."""
        parts = block_partition(6, 6, 4)
        active = np.array([False, True, False, False])
        res = make_strategy(name, self.SG).balance_step(
            parts, 4, [9.0] * 4, active=active)
        assert np.all(res.parts_after == 1)


class TestEvacuateAssignments:
    SG = SubdomainGrid(24, 24, 6, 6)

    def test_splits_dead_region_between_neighbors(self):
        from repro.core.strategies import evacuate_assignments
        parts = block_partition(6, 6, 4)
        active = np.array([True, True, False, True])
        new, plans = evacuate_assignments(self.SG, parts, active)
        assert np.all(new != 2)
        assert len(plans) == 9
        counts = np.bincount(new, minlength=4)
        assert counts.sum() == 36
        # the load spreads over the survivors instead of one dump
        assert counts[counts > 0].max() <= 15

    def test_bootstrap_when_no_active_frontier(self):
        """Only survivor is an SD-less joiner: evacuation must still
        converge by bootstrapping the frontier."""
        from repro.core.strategies import evacuate_assignments
        parts = np.zeros(36, dtype=np.int64)
        active = np.array([False, True])
        new, plans = evacuate_assignments(self.SG, parts, active)
        assert np.all(new == 1)
        assert len(plans) == 36

    def test_input_not_mutated_and_deterministic(self):
        from repro.core.strategies import evacuate_assignments
        parts = block_partition(6, 6, 4)
        before = parts.copy()
        active = np.array([True, False, False, True])
        a, _ = evacuate_assignments(self.SG, parts, active)
        b, _ = evacuate_assignments(self.SG, parts, active)
        assert np.array_equal(parts, before)
        assert np.array_equal(a, b)

    def test_requires_an_active_node(self):
        from repro.core.strategies import evacuate_assignments
        with pytest.raises(ValueError, match="at least one active"):
            evacuate_assignments(self.SG, block_partition(6, 6, 4),
                                 np.zeros(4, dtype=bool))


class TestStrategySpecificBehavior:
    def test_diffusion_moves_only_between_adjacent_nodes(self):
        sg = SubdomainGrid(24, 24, 6, 6)
        parts = block_partition(6, 6, 4)
        from repro.core.tree import node_adjacency
        adjacent = set(node_adjacency(sg, parts))
        res = make_strategy("diffusion", sg).balance_step(
            parts, 4, [9.0, 6.0, 3.0, 1.5])
        assert res.triggered and res.plans
        for plan in res.plans:
            pair = (min(plan.donor, plan.receiver),
                    max(plan.donor, plan.receiver))
            assert pair in adjacent

    def test_greedy_relays_between_non_adjacent_extremes(self):
        """Hot and cold nodes separated by a near-balanced middle: the
        greedy strategy must relay load through it, not stall."""
        sg = SubdomainGrid(24, 24, 6, 6)
        # three vertical strips: node 0 | node 1 | node 2
        parts = np.repeat([0, 0, 1, 1, 2, 2], 1)
        parts = np.tile(parts, 6)
        res = make_strategy("greedy", sg).balance_step(
            parts, 3, [24.0, 12.0, 3.0])  # 0 slow & overloaded, 2 fast
        counts = np.bincount(res.parts_after, minlength=3)
        assert counts[2] > 12  # the far node must end up with more SDs
        assert counts.sum() == 36

    def test_repartition_moves_less_than_a_naive_relabel(self):
        """The max-overlap remap keeps the fresh layout anchored to the
        old owners — a mild imbalance must not shuffle most of the mesh."""
        sg = SubdomainGrid(32, 32, 8, 8)
        parts = block_partition(8, 8, 4)
        res = make_strategy("repartition", sg).balance_step(
            parts, 4, [16.0, 16.0, 12.0, 12.0])
        assert res.triggered
        assert res.sds_moved < 32  # far fewer than a wholesale relabel

    def test_repartition_settles_to_integer_targets(self):
        sg = SubdomainGrid(32, 32, 8, 8)
        parts = block_partition(8, 8, 4)
        res = make_strategy("repartition", sg).balance_step(
            parts, 4, [16.0, 16.0, 4.0, 4.0])
        counts = np.bincount(res.parts_after, minlength=4)
        # speeds (1,1,4,4): targets ~ (6,6,26,26); the greedy polish must
        # land within one SD of every target
        assert np.abs(counts - np.array([6, 6, 26, 26])).max() <= 1

    def test_strategies_accept_read_only_parts(self):
        """Results feed the next step: a read-only parts array (from a
        previous frozen result) must be accepted by every strategy."""
        sg = SubdomainGrid(24, 24, 6, 6)
        parts = block_partition(6, 6, 4)
        parts.flags.writeable = False
        for name in ALL:
            res = make_strategy(name, sg).balance_step(
                parts, 4, [9.0, 9.0, 2.25, 2.25])
            assert res.triggered
