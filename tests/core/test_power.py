"""Tests for eqs. (8)-(10) and integer apportionment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.power import (compute_power, expected_sds, imbalance_ratio,
                              integer_targets)


def load_imbalance(sd_counts, busy_times):
    """Eq. (9): ``E(N_i) - SD(N_i)`` for every node."""
    sds = np.asarray(sd_counts, dtype=np.float64)
    power = compute_power(sds, busy_times)
    return expected_sds(float(sds.sum()), power) - sds


class TestComputePower:
    def test_eq8_basic(self):
        power = compute_power([4, 8], [2.0, 2.0])
        assert list(power) == [2.0, 4.0]

    def test_equal_nodes_equal_power(self):
        power = compute_power([5, 5, 5], [1.5, 1.5, 1.5])
        assert np.allclose(power, power[0])

    def test_zero_sd_node_gets_mean_power(self):
        power = compute_power([4, 0], [2.0, 0.0])
        assert power[0] == 2.0
        assert power[1] == 2.0  # fallback: mean of measured

    def test_zero_busy_node_gets_mean_power(self):
        power = compute_power([4, 4], [2.0, 0.0])
        assert power[1] == power[0]

    def test_all_unmeasurable_fallback_one(self):
        power = compute_power([0, 0], [0.0, 0.0])
        assert list(power) == [1.0, 1.0]

    def test_work_weighted_power(self):
        # node 1's SDs are half-weight: same busy time => half the power
        power = compute_power([4, 4], [2.0, 2.0], work_per_sd=[1.0, 0.5])
        assert power[0] == 2.0
        assert power[1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            compute_power([1, 2], [1.0])
        with pytest.raises(ValueError, match="non-negative"):
            compute_power([-1, 2], [1.0, 1.0])


class TestExpectedSds:
    def test_eq10_proportional(self):
        exp = expected_sds(12, [1.0, 2.0, 3.0])
        assert list(exp) == [2.0, 4.0, 6.0]

    def test_sums_to_total(self):
        exp = expected_sds(25, [1.3, 2.7, 0.4, 1.1])
        assert exp.sum() == pytest.approx(25.0)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            expected_sds(10, [1.0, 0.0])


class TestLoadImbalance:
    def test_eq9_balanced_is_zero(self):
        imb = load_imbalance([4, 4], [1.0, 1.0])
        assert np.allclose(imb, 0.0)

    def test_fast_node_positive(self):
        """Node 1 processes 4 SDs in half the time -> it should get more."""
        imb = load_imbalance([4, 4], [2.0, 1.0])
        assert imb[1] > 0 > imb[0]

    def test_sums_to_zero(self):
        imb = load_imbalance([3, 7, 6], [1.0, 2.5, 0.7])
        assert imb.sum() == pytest.approx(0.0, abs=1e-10)

    @given(st.lists(st.tuples(st.integers(1, 20),
                              st.floats(0.1, 10.0)), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_conservation_property(self, node_specs):
        sds = [s for s, _ in node_specs]
        busy = [b for _, b in node_specs]
        imb = load_imbalance(sds, busy)
        assert imb.sum() == pytest.approx(0.0, abs=1e-8)


class TestIntegerTargets:
    def test_exact_integers_unchanged(self):
        assert list(integer_targets([2.0, 3.0, 5.0])) == [2, 3, 5]

    def test_largest_remainder(self):
        # 10 split as (3.5, 3.3, 3.2) -> (4, 3, 3)
        assert list(integer_targets([3.5, 3.3, 3.2])) == [4, 3, 3]

    def test_sum_conserved(self):
        t = integer_targets([1.6, 1.6, 6.4, 6.4])
        assert t.sum() == 16
        assert list(t) == [2, 2, 6, 6]

    def test_tie_breaks_by_id(self):
        t = integer_targets([1.5, 1.5])
        assert list(t) == [2, 1]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            integer_targets([-1.0, 2.0])

    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=10),
           st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_apportionment_properties(self, raw, total):
        raw = np.asarray(raw) + 1e-9
        expected = total * raw / raw.sum()
        t = integer_targets(expected)
        assert t.sum() == total
        assert np.all(t >= 0)
        # each target within 1 of its real share
        assert np.all(np.abs(t - expected) < 1.0 + 1e-9)


class TestImbalanceRatio:
    def test_balanced_is_one(self):
        assert imbalance_ratio([2.0, 2.0, 2.0]) == 1.0

    def test_imbalanced_above_one(self):
        assert imbalance_ratio([1.0, 3.0]) == pytest.approx(1.5)

    def test_all_idle_is_one(self):
        assert imbalance_ratio([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            imbalance_ratio([])
