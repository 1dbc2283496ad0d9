"""Tests for the decomposition: ghosts, case split, node adjacency.

The array gathers are checked against the object-form walks of
``geometry_oracles`` on fixed layouts and, as hypothesis properties, on
random grids (uneven cuts, rings beyond the first), ownerships and
domain masks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geometry_oracles as oracle
from repro.core.tree import node_adjacency
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


def messages(d, radius, active=None):
    """``ghost_messages`` as one ``(src_node, dst_node, src_sd, dst_sd,
    nbytes)`` tuple per message."""
    return list(zip(*d.ghost_messages(radius, active)))


def exchange(d, radius):
    return oracle.exchange_bytes(oracle.ghost_messages(d.sd_grid, d.parts,
                                                       radius))


class TestOwnership:
    def test_owner_of_quadrants(self):
        d = quad_decomp()
        assert d.parts[0] == 0
        assert list(np.bincount(d.parts)) == [4, 4, 4, 4]

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
        assert d.ghost_messages(2) == ([], [], [], [], [])

    def test_two_node_split_messages_cross_the_cut(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        parts = np.array([0, 0, 1, 1] * 4)  # left/right halves
        d = Decomposition(sg, parts, 2)
        msgs = messages(d, 2)
        assert msgs
        for src_node, dst_node, *_ in msgs:
            assert {src_node, dst_node} == {0, 1}

    def test_messages_are_plain_ints(self):
        for column in quad_decomp().ghost_messages(2):
            assert column and all(type(v) is int for v in column)

    def test_message_bytes_match_region(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        parts = np.array([0, 0, 1, 1] * 4)
        for m in oracle.ghost_messages(sg, parts, 2):
            assert m.nbytes == m.region.area * BYTES_PER_DP

    def test_exchange_symmetric_for_symmetric_layout(self):
        ex = exchange(quad_decomp(), 2)
        assert ex[(0, 1)] == ex[(1, 0)]
        assert ex[(0, 2)] == ex[(2, 0)]

    def test_total_bytes_grows_with_radius(self):
        d = quad_decomp()
        assert d.total_exchange_bytes(3) > d.total_exchange_bytes(1)
        assert d.total_exchange_bytes(2) == sum(exchange(d, 2).values())

    def test_quadrants_have_diagonal_corner_exchange(self):
        ex = exchange(quad_decomp(), 2)
        # diagonal pairs exchange only small corner regions
        assert ex[(0, 3)] > 0
        assert ex[(0, 3)] < ex[(0, 1)]

    def test_active_mask_drops_pairs_touching_inactive_sds(self):
        d = quad_decomp()
        active = np.ones(16, dtype=bool)
        active[[1, 6]] = False
        msgs = messages(d, 2, active)
        assert msgs
        assert all(active[src] and active[dst]
                   for _, _, src, dst, _ in msgs)


class TestNodeAdjacency:
    def test_quadrant_adjacency(self):
        d = quad_decomp()
        adj = node_adjacency(d.sd_grid, d.parts)
        # face adjacency only: quadrants 0-1, 0-2, 1-3, 2-3
        assert (0, 1) in adj and (2, 3) in adj
        assert (0, 3) not in adj  # diagonal quadrants share no SD face

    def test_single_node_no_adjacency(self):
        sg = SubdomainGrid(8, 8, 2, 2)
        assert node_adjacency(sg, np.zeros(4, dtype=int)) == []

    def test_strips_adjacency_is_a_path(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        parts = np.repeat([0, 1, 2, 3], 4)  # horizontal strips
        assert node_adjacency(sg, parts) == [(0, 1), (1, 2), (2, 3)]


class TestCaseSplit:
    def test_interior_sd_fully_case2_on_single_node(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        d = Decomposition(sg, np.zeros(16, dtype=int), 1)
        assert d.case_split(2)[5] == 0

    def test_boundary_sd_has_case1_strip(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        parts = np.array([0, 0, 1, 1] * 4)
        d = Decomposition(sg, parts, 2)
        # SD at column 1 (owned by 0) borders column 2 (owned by 1)
        sd = sg.sd_id(1, 1)
        # right strip of width 2 in a 4x4 block = 8 DPs
        assert d.case_split(2)[sd] == 8
        split = oracle.case_split(sg, parts, sd, 2)
        assert np.all(split.case1_mask[:, 2:])
        assert not np.any(split.case1_mask[:, :2])

    def test_radius_covering_whole_sd_makes_all_case1(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        parts = np.array([0, 0, 1, 1] * 4)
        d = Decomposition(sg, parts, 2)
        assert d.case_split(4)[sg.sd_id(1, 1)] == 16

    def test_case1_counts_within_blocks(self):
        d = quad_decomp(mesh=16, sds=4)
        case1 = d.case_split(2)
        sizes = [d.sd_grid.dp_count(sd) for sd in range(16)]
        assert np.all((0 <= case1) & (case1 <= sizes))

    def test_corner_sd_two_foreign_sides(self):
        d = quad_decomp(mesh=16, sds=4)
        # SD (1,1) is the inner corner of node 0's quadrant:
        # strips along two sides: 4 + 4 - 1 overlap corner = 7
        assert d.case_split(1)[d.sd_grid.sd_id(1, 1)] == 7

    def test_counts_memoized_across_ownerships(self):
        d = quad_decomp()
        first = d.case_split(2)
        table = d.sd_grid.halo_table(2)
        keys = len(table._case1)
        assert np.array_equal(d.case_split(2), first)
        assert len(table._case1) == keys


@st.composite
def layouts(draw):
    """A grid (uneven cuts allowed), an ownership, a radius up to twice
    the SD edge, and an optional domain mask."""
    mesh_x = draw(st.integers(4, 28))
    mesh_y = draw(st.integers(4, 28))
    sd_x = draw(st.integers(1, min(6, mesh_x)))
    sd_y = draw(st.integers(1, min(6, mesh_y)))
    sg = SubdomainGrid(mesh_x, mesh_y, sd_x, sd_y)
    nodes = draw(st.integers(1, 5))
    nsd = sg.num_subdomains
    parts = np.array(draw(st.lists(st.integers(0, nodes - 1),
                                   min_size=nsd, max_size=nsd)))
    edge = max(mesh_x // sd_x, mesh_y // sd_y)
    radius = draw(st.integers(0, 2 * edge + 1))
    active = None
    if draw(st.booleans()):
        active = np.array(draw(st.lists(st.booleans(), min_size=nsd,
                                        max_size=nsd)))
    return sg, parts, nodes, radius, active


class TestArrayCompileMatchesObjectWalks:
    @given(layout=layouts())
    @settings(max_examples=120, deadline=None)
    def test_ghost_messages(self, layout):
        sg, parts, nodes, radius, active = layout
        d = Decomposition(sg, parts, nodes)
        want = [m.as_tuple() for m in oracle.ghost_messages(sg, parts, radius)
                if active is None or (active[m.src_sd] and active[m.dst_sd])]
        assert messages(d, radius, active) == want
        assert d.total_exchange_bytes(radius) == sum(
            m.nbytes for m in oracle.ghost_messages(sg, parts, radius))

    @given(layout=layouts())
    @settings(max_examples=120, deadline=None)
    def test_case_split(self, layout):
        sg, parts, nodes, radius, _ = layout
        d = Decomposition(sg, parts, nodes)
        want = [oracle.case_split(sg, parts, sd, radius).case1_count
                for sd in range(sg.num_subdomains)]
        assert d.case_split(radius).tolist() == want

    @given(layout=layouts())
    @settings(max_examples=80, deadline=None)
    def test_node_adjacency(self, layout):
        sg, parts, _, _, _ = layout
        assert node_adjacency(sg, parts) == oracle.node_adjacency(sg, parts)
