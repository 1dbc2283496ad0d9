"""Tests for the decomposition: ghosts, case split, node adjacency."""

import numpy as np
import pytest

from repro.mesh.decomposition import BYTES_PER_DP, Decomposition
from repro.mesh.subdomain import SubdomainGrid


def quad_decomp(mesh=16, sds=4, nodes=4):
    """4x4 SDs on `nodes` nodes in quadrant layout (paper Sec. 8.3)."""
    sg = SubdomainGrid(mesh, mesh, sds, sds)
    parts = np.zeros(sds * sds, dtype=int)
    for sd in range(sds * sds):
        ix, iy = sg.sd_coords(sd)
        parts[sd] = (1 if ix >= sds // 2 else 0) + 2 * (1 if iy >= sds // 2 else 0)
    return Decomposition(sg, parts, nodes)


class TestOwnership:
    def test_owner_of_quadrants(self):
        d = quad_decomp()
        owners = [d.owner(sd) for sd in range(16)]
        assert owners[0] == 0
        assert list(np.bincount(owners)) == [4, 4, 4, 4]

    def test_validation(self):
        sg = SubdomainGrid(8, 8, 2, 2)
        with pytest.raises(ValueError, match="parts length"):
            Decomposition(sg, np.zeros(3, dtype=int), 2)
        with pytest.raises(ValueError, match="part ids"):
            Decomposition(sg, np.array([0, 1, 2, 3]), 2)
        with pytest.raises(ValueError, match="num_nodes"):
            Decomposition(sg, np.zeros(4, dtype=int), 0)


class TestGhostMessages:
    def test_single_node_no_messages(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        d = Decomposition(sg, np.zeros(16, dtype=int), 1)
        assert d.ghost_messages(2) == []

    def test_two_node_split_messages_cross_the_cut(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        parts = np.array([0, 0, 1, 1] * 4)  # left/right halves
        d = Decomposition(sg, parts, 2)
        msgs = d.ghost_messages(2)
        assert msgs
        for m in msgs:
            assert {m.src_node, m.dst_node} == {0, 1}

    def test_message_bytes_match_region(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        parts = np.array([0, 0, 1, 1] * 4)
        d = Decomposition(sg, parts, 2)
        for m in d.ghost_messages(2):
            assert m.nbytes == m.region.area * BYTES_PER_DP

    def test_exchange_symmetric_for_symmetric_layout(self):
        d = quad_decomp()
        ex = d.exchange_bytes(2)
        assert ex[(0, 1)] == ex[(1, 0)]
        assert ex[(0, 2)] == ex[(2, 0)]

    def test_total_bytes_grows_with_radius(self):
        d = quad_decomp()
        assert d.total_exchange_bytes(3) > d.total_exchange_bytes(1)

    def test_quadrants_have_diagonal_corner_exchange(self):
        d = quad_decomp()
        ex = d.exchange_bytes(2)
        # diagonal pairs exchange only small corner regions
        assert ex[(0, 3)] > 0
        assert ex[(0, 3)] < ex[(0, 1)]


class TestNodeAdjacency:
    def test_quadrant_adjacency(self):
        d = quad_decomp()
        adj = d.node_adjacency()
        # face adjacency only: quadrants 0-1, 0-2, 1-3, 2-3
        assert (0, 1) in adj and (2, 3) in adj
        assert (0, 3) not in adj  # diagonal quadrants share no SD face

    def test_single_node_no_adjacency(self):
        sg = SubdomainGrid(8, 8, 2, 2)
        d = Decomposition(sg, np.zeros(4, dtype=int), 1)
        assert d.node_adjacency() == []

    def test_strips_adjacency_is_a_path(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        parts = np.repeat([0, 1, 2, 3], 4)  # horizontal strips
        d = Decomposition(sg, parts, 4)
        assert d.node_adjacency() == [(0, 1), (1, 2), (2, 3)]


class TestCaseSplit:
    def test_interior_sd_fully_case2_on_single_node(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        d = Decomposition(sg, np.zeros(16, dtype=int), 1)
        split = d.case_split(5, radius=2)
        assert split.case1_count == 0
        assert split.case2_count == 16

    def test_boundary_sd_has_case1_strip(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        parts = np.array([0, 0, 1, 1] * 4)
        d = Decomposition(sg, parts, 2)
        # SD at column 1 (owned by 0) borders column 2 (owned by 1)
        sd = sg.sd_id(1, 1)
        split = d.case_split(sd, radius=2)
        # right strip of width 2 in a 4x4 block = 8 DPs
        assert split.case1_count == 8
        assert split.case2_count == 8
        assert np.all(split.case1_mask[:, 2:])
        assert not np.any(split.case1_mask[:, :2])

    def test_radius_covering_whole_sd_makes_all_case1(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        parts = np.array([0, 0, 1, 1] * 4)
        d = Decomposition(sg, parts, 2)
        sd = sg.sd_id(1, 1)
        split = d.case_split(sd, radius=4)
        assert split.case2_count == 0

    def test_case_counts_sum_to_mesh(self):
        d = quad_decomp(mesh=16, sds=4)
        splits = [d.case_split(sd, radius=2) for sd in range(16)]
        assert sum(s.case1_count + s.case2_count for s in splits) == 16 * 16

    def test_corner_sd_two_foreign_sides(self):
        d = quad_decomp(mesh=16, sds=4)
        sg = d.sd_grid
        # SD (1,1) is the inner corner of node 0's quadrant
        split = d.case_split(sg.sd_id(1, 1), radius=1)
        # strips along two sides: 4 + 4 - 1 overlap corner = 7
        assert split.case1_count == 7

    def test_split_total_matches_dp_count(self):
        d = quad_decomp()
        for sd in range(d.sd_grid.num_subdomains):
            split = d.case_split(sd, radius=2)
            assert split.total == d.sd_grid.dp_count(sd)
