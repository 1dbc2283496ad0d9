"""Tests for the CSR graph container and builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.graph import Graph, graph_from_edges, grid_dual_graph

from graph_checks import assert_symmetric_without_self_loops, num_edges


class TestGraphFromEdges:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7))
                    .filter(lambda e: e[0] != e[1]), max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_random_edge_lists_build_symmetric_graphs(self, edges):
        g = graph_from_edges(8, edges)
        assert_symmetric_without_self_loops(g)
        assert num_edges(g) == len({frozenset(e) for e in edges})

    def test_simple_path(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert num_edges(g) == 2
        assert list(g.neighbors(1)) == [0, 2]

    def test_edges_symmetric(self):
        g = graph_from_edges(4, [(0, 2), (2, 3)])
        assert_symmetric_without_self_loops(g)

    def test_duplicate_edges_merge_weights(self):
        g = graph_from_edges(2, [(0, 1), (1, 0)], edge_weights=[1.0, 2.5])
        assert num_edges(g) == 1
        assert g.edge_weights(0)[0] == pytest.approx(3.5)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_edges(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            graph_from_edges(2, [(0, 5)])

    def test_default_unit_weights(self):
        g = graph_from_edges(3, [(0, 1)])
        assert np.all(g.vwgt == 1.0)
        assert np.all(g.adjwgt == 1.0)

    def test_vertex_weights_stored(self):
        g = graph_from_edges(2, [(0, 1)], vwgt=[2.0, 3.0])
        assert g.total_vertex_weight() == pytest.approx(5.0)

    def test_degree(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(3) == 1

    def test_empty_graph(self):
        g = graph_from_edges(0, [])
        assert g.num_vertices == 0
        assert g.is_connected()

    def test_isolated_vertices(self):
        g = graph_from_edges(3, [(0, 1)])
        assert not g.is_connected()
        labels = g.connected_components()
        assert labels[0] == labels[1] != labels[2]


class TestGraphValidation:
    def test_bad_xadj_start(self):
        with pytest.raises(ValueError):
            Graph(np.array([1, 2]), np.array([0]))

    def test_bad_xadj_end(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 5]), np.array([0]))

    def test_decreasing_xadj(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Graph(np.array([0, 2, 1, 2]), np.array([1, 0]))

    def test_vwgt_length_checked(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 0]), np.array([], dtype=np.int64),
                  vwgt=np.array([1.0, 2.0]))

    def test_adjncy_range_checked(self):
        with pytest.raises(ValueError, match="out-of-range"):
            Graph(np.array([0, 1]), np.array([7]))

    def test_coords_length_checked(self):
        with pytest.raises(ValueError, match="one row per vertex"):
            graph_from_edges(2, [(0, 1)], coords=np.zeros((3, 2)))


class TestConnectivityHelpers:
    def test_subgraph_connected_true(self):
        g = grid_dual_graph(3, 3)
        assert g.subgraph_is_connected([0, 1, 2])

    def test_subgraph_connected_false(self):
        g = grid_dual_graph(3, 3)
        # opposite corners with nothing in between
        assert not g.subgraph_is_connected([0, 8])

    def test_subgraph_empty_is_connected(self):
        g = grid_dual_graph(2, 2)
        assert g.subgraph_is_connected([])

    def test_components_of_connected_graph(self):
        g = grid_dual_graph(4, 4)
        assert g.is_connected()
        assert np.all(g.connected_components() == 0)


class TestGridDualGraph:
    def test_vertex_count(self):
        g = grid_dual_graph(5, 5)
        assert g.num_vertices == 25

    def test_edge_count_4neighbor(self):
        # (nx-1)*ny horizontal + nx*(ny-1) vertical
        g = grid_dual_graph(5, 4)
        assert num_edges(g) == 4 * 4 + 5 * 3

    def test_edge_count_8neighbor(self):
        # the 4-neighbour edges plus two diagonals per interior cell
        g = grid_dual_graph(5, 4, diagonal=True)
        assert num_edges(g) == 4 * 4 + 5 * 3 + 2 * 4 * 3
        assert_symmetric_without_self_loops(g)

    def test_interior_vertex_degree(self):
        g = grid_dual_graph(3, 3)
        assert g.degree(4) == 4  # center of 3x3

    def test_corner_degree(self):
        g = grid_dual_graph(3, 3)
        assert g.degree(0) == 2

    def test_diagonal_adjacency(self):
        g = grid_dual_graph(3, 3, diagonal=True)
        assert g.degree(4) == 8
        # diagonal edge weight is smaller than face weight
        nbrs = list(g.neighbors(4))
        wgts = dict(zip(nbrs, g.edge_weights(4)))
        assert wgts[0] == pytest.approx(0.25)   # diagonal
        assert wgts[1] == pytest.approx(1.0)    # face

    def test_coords_in_unit_square(self):
        g = grid_dual_graph(4, 2)
        assert g.coords is not None
        assert np.all(g.coords >= 0) and np.all(g.coords <= 1)

    def test_single_sd_grid(self):
        g = grid_dual_graph(1, 1)
        assert g.num_vertices == 1
        assert num_edges(g) == 0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            grid_dual_graph(0, 3)

    def test_custom_vertex_weights(self):
        g = grid_dual_graph(2, 2, vwgt=[1, 2, 3, 4])
        assert g.total_vertex_weight() == 10

    @given(nx=st.integers(1, 8), ny=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_grid_graph_always_valid_and_connected(self, nx, ny):
        g = grid_dual_graph(nx, ny)
        assert_symmetric_without_self_loops(g)
        assert g.is_connected()
