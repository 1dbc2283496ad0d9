"""Tests for spectral bisection."""

import numpy as np
import pytest

from repro.partition.graph import graph_from_edges, grid_dual_graph
from repro.partition.metrics import edge_cut, imbalance, num_parts_used
from repro.partition.spectral import (fiedler_vector, spectral_bisection,
                                      spectral_partition)


class TestFiedlerVector:
    def test_path_graph_is_monotone(self):
        """On a path, the Fiedler vector is monotone along the path."""
        g = graph_from_edges(8, [(i, i + 1) for i in range(7)])
        f = fiedler_vector(g)
        diffs = np.diff(f)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_orthogonal_to_constants(self):
        g = grid_dual_graph(5, 5)
        f = fiedler_vector(g)
        assert abs(f.sum()) < 1e-8

    def test_large_graph_sparse_path(self):
        g = grid_dual_graph(12, 12)  # 144 > 64 -> eigsh path
        f = fiedler_vector(g)
        assert len(f) == 144
        assert abs(f.sum()) < 1e-6

    @pytest.mark.parametrize("graph", [
        graph_from_edges(2, [(0, 1)]),
        graph_from_edges(6, [(i, i + 1) for i in range(5)]),
        grid_dual_graph(4, 4),
        grid_dual_graph(5, 5, diagonal=True),  # weighted edges
        grid_dual_graph(8, 8),                 # the dense cutoff
        grid_dual_graph(9, 8),                 # first past it: eigsh
    ], ids=["edge", "path6", "grid4x4", "grid5x5-diag", "grid8x8",
            "grid9x8"])
    def test_is_the_second_laplacian_eigenvector(self, graph):
        n = graph.num_vertices
        laplacian = np.zeros((n, n))
        for v in range(n):
            for u, w in zip(graph.neighbors(v), graph.edge_weights(v)):
                laplacian[v, u] -= w
                laplacian[v, v] += w
        lam2 = np.linalg.eigvalsh(laplacian)[1]
        f = fiedler_vector(graph)
        np.testing.assert_allclose(laplacian @ f, lam2 * f, atol=1e-8)
        assert np.linalg.norm(f) == pytest.approx(1.0)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            fiedler_vector(graph_from_edges(1, []))


class TestSpectralBisection:
    def test_splits_path_in_half(self):
        g = graph_from_edges(8, [(i, i + 1) for i in range(7)])
        parts = spectral_bisection(g)
        assert edge_cut(g, parts) == 1.0  # the optimal path cut

    def test_grid_bisection_near_optimal(self):
        g = grid_dual_graph(8, 8)
        parts = spectral_bisection(g)
        assert edge_cut(g, parts) <= 12.0  # optimal is 8
        assert imbalance(g, parts, 2) <= 1.1

    def test_asymmetric_target(self):
        g = grid_dual_graph(8, 8)
        parts = spectral_bisection(g, target_fraction=0.25)
        w0 = g.vwgt[parts == 0].sum()
        assert w0 / g.total_vertex_weight() == pytest.approx(0.25, abs=0.05)

    def test_validation(self):
        g = grid_dual_graph(4, 4)
        with pytest.raises(ValueError):
            spectral_bisection(g, target_fraction=0.0)


class TestSpectralPartition:
    def test_all_parts_used(self):
        g = grid_dual_graph(8, 8)
        for k in (2, 3, 4):
            parts = spectral_partition(g, k)
            assert num_parts_used(parts) == k

    def test_balance(self):
        g = grid_dual_graph(10, 10)
        parts = spectral_partition(g, 4)
        assert imbalance(g, parts, 4) <= 1.3

    def test_quality_on_par_with_blocks(self):
        """4-way spectral cut within 2x of the ideal block cut."""
        g = grid_dual_graph(8, 8)
        parts = spectral_partition(g, 4)
        assert edge_cut(g, parts) <= 32.0  # blocks achieve 16

    def test_k1(self):
        g = grid_dual_graph(3, 3)
        assert np.all(spectral_partition(g, 1) == 0)

    def test_invalid_k(self):
        g = grid_dual_graph(3, 3)
        with pytest.raises(ValueError):
            spectral_partition(g, 0)
