"""Tests for partition quality metrics."""

import numpy as np
import pytest

from repro.partition.graph import graph_from_edges, grid_dual_graph
from repro.partition.metrics import (edge_cut, evaluate_partition,
                                     imbalance, num_parts_used, part_weights,
                                     parts_are_contiguous)


class TestEdgeCut:
    def test_all_same_part_zero_cut(self):
        g = grid_dual_graph(4, 4)
        assert edge_cut(g, np.zeros(16, dtype=int)) == 0.0

    def test_half_split_of_path(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        parts = np.array([0, 0, 1, 1])
        assert edge_cut(g, parts) == 1.0

    def test_weighted_cut(self):
        g = graph_from_edges(2, [(0, 1)], edge_weights=[3.5])
        assert edge_cut(g, np.array([0, 1])) == 3.5

    def test_grid_vertical_split(self):
        # 4x4 grid split into left/right halves cuts 4 edges
        g = grid_dual_graph(4, 4)
        parts = np.array([0, 0, 1, 1] * 4)
        assert edge_cut(g, parts) == 4.0

    def test_length_mismatch_raises(self):
        g = grid_dual_graph(2, 2)
        with pytest.raises(ValueError, match="partition length"):
            edge_cut(g, np.zeros(3, dtype=int))

    def test_negative_part_raises(self):
        g = grid_dual_graph(2, 2)
        with pytest.raises(ValueError, match="negative part"):
            edge_cut(g, np.array([0, -1, 0, 0]))


class TestWeightsAndImbalance:
    def test_part_weights(self):
        g = grid_dual_graph(2, 2, vwgt=[1, 2, 3, 4])
        w = part_weights(g, np.array([0, 0, 1, 1]), k=2)
        assert list(w) == [3.0, 7.0]

    def test_perfect_balance(self):
        g = grid_dual_graph(2, 2)
        assert imbalance(g, np.array([0, 0, 1, 1]), k=2) == pytest.approx(1.0)

    def test_imbalanced(self):
        g = grid_dual_graph(2, 2)
        assert imbalance(g, np.array([0, 0, 0, 1]), k=2) == pytest.approx(1.5)

    def test_empty_part_counts_in_k(self):
        g = grid_dual_graph(2, 2)
        # all on part 0 of 2 -> max/ideal = 4/2
        assert imbalance(g, np.zeros(4, dtype=int), k=2) == pytest.approx(2.0)

    def test_num_parts_used(self):
        assert num_parts_used(np.array([0, 0, 2, 2])) == 2


class TestContiguity:
    def test_contiguous_halves(self):
        g = grid_dual_graph(4, 1)
        assert parts_are_contiguous(g, np.array([0, 0, 1, 1]))

    def test_split_part_not_contiguous(self):
        g = grid_dual_graph(4, 1)
        assert not parts_are_contiguous(g, np.array([0, 1, 0, 1]))

    def test_single_part(self):
        g = grid_dual_graph(3, 3)
        assert parts_are_contiguous(g, np.zeros(9, dtype=int))


class TestReport:
    def test_evaluate_partition_bundles_metrics(self):
        g = grid_dual_graph(4, 4)
        parts = np.array([0, 0, 1, 1] * 4)
        rep = evaluate_partition(g, parts, k=2)
        assert rep.cut == 4.0
        assert rep.imbalance == pytest.approx(1.0)
        assert rep.contiguous
        assert rep.parts_used == 2
        assert rep.k == 2
