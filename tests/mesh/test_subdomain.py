"""Tests for Rect and SubdomainGrid, its geometry arrays against the
object-form walks of ``geometry_oracles``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_oracles import (clip, expand, face_neighbors, halo_neighbors,
                              halo_rect, intersect, sd_center)
from repro.mesh.subdomain import Rect, SubdomainGrid


class TestRect:
    def test_area_and_dims(self):
        r = Rect(0, 4, 2, 5)
        assert r.height == 4 and r.width == 3
        assert r.area == 12

    def test_degenerate_area_zero(self):
        assert Rect(3, 3, 0, 5).area == 0
        assert Rect(5, 3, 0, 5).area == 0

    def test_slices_roundtrip(self):
        a = np.arange(36).reshape(6, 6)
        r = Rect(1, 3, 2, 5)
        assert a[r.slices()].shape == (2, 3)

    def test_intersect(self):
        a = Rect(0, 4, 0, 4)
        b = Rect(2, 6, 3, 8)
        c = intersect(a, b)
        assert c == Rect(2, 4, 3, 4)

    def test_disjoint_intersection_empty(self):
        assert intersect(Rect(0, 2, 0, 2), Rect(5, 7, 5, 7)).area == 0

    def test_expand_and_clip(self):
        r = expand(Rect(0, 2, 0, 2), 3)
        assert r == Rect(-3, 5, -3, 5)
        assert clip(r, 4, 4) == Rect(0, 4, 0, 4)

    def test_equality_and_hash(self):
        assert Rect(0, 1, 2, 3) == Rect(0, 1, 2, 3)
        assert hash(Rect(0, 1, 2, 3)) == hash(Rect(0, 1, 2, 3))
        assert Rect(0, 1, 2, 3) != Rect(0, 1, 2, 4)


class TestSubdomainGrid:
    def test_paper_fig2_setup(self):
        """Fig. 2: 20x20 DPs in 5x5 SDs of 4x4 DPs each."""
        sg = SubdomainGrid(20, 20, 5, 5)
        assert sg.num_subdomains == 25
        for sd in range(25):
            assert sg.dp_count(sd) == 16

    def test_id_coord_roundtrip(self):
        sg = SubdomainGrid(40, 30, 4, 3)
        for sd in range(sg.num_subdomains):
            ix, iy = sg.sd_coords(sd)
            assert sg.sd_id(ix, iy) == sd

    def test_out_of_range_ids(self):
        sg = SubdomainGrid(8, 8, 2, 2)
        with pytest.raises(IndexError):
            sg.sd_coords(4)
        with pytest.raises(IndexError):
            sg.sd_id(2, 0)

    def test_rects_tile_mesh(self):
        sg = SubdomainGrid(17, 13, 4, 3)  # uneven division
        cover = np.zeros((13, 17), dtype=int)
        for sd in range(sg.num_subdomains):
            cover[sg.rect(sd).slices()] += 1
        assert np.all(cover == 1)

    def test_uneven_split_sizes_differ_by_one_line(self):
        sg = SubdomainGrid(10, 10, 3, 3)
        widths = {sg.rect(sd).width for sd in range(9)}
        assert widths <= {3, 4}

    def test_more_sds_than_dps_rejected(self):
        with pytest.raises(ValueError, match="more SDs than DPs"):
            SubdomainGrid(4, 4, 5, 5)

    def test_sd_center_in_unit_square(self):
        sg = SubdomainGrid(20, 20, 5, 5)
        cx, cy = sd_center(sg, 0)
        assert (cx, cy) == (0.1, 0.1)
        cx, cy = sd_center(sg, 24)
        assert (cx, cy) == (0.9, 0.9)

    def test_face_neighbors_interior(self):
        sg = SubdomainGrid(20, 20, 5, 5)
        center = sg.sd_id(2, 2)
        nbrs = face_neighbors(sg, center)
        assert len(nbrs) == 4
        assert set(nbrs) == {sg.sd_id(1, 2), sg.sd_id(3, 2),
                             sg.sd_id(2, 1), sg.sd_id(2, 3)}

    def test_face_neighbors_corner(self):
        sg = SubdomainGrid(20, 20, 5, 5)
        assert len(face_neighbors(sg, 0)) == 2

    def test_halo_rect_clipped_at_boundary(self):
        sg = SubdomainGrid(20, 20, 5, 5)
        halo = halo_rect(sg, 0, 2)
        assert halo == Rect(0, 6, 0, 6)

    def test_halo_neighbors_small_radius(self):
        """Radius smaller than SD size: only the 8 surrounding SDs."""
        sg = SubdomainGrid(20, 20, 5, 5)
        center = sg.sd_id(2, 2)
        nbrs = halo_neighbors(sg, center, 2)
        assert len(nbrs) == 8

    def test_halo_neighbors_overlap_areas(self):
        sg = SubdomainGrid(20, 20, 5, 5)
        center = sg.sd_id(2, 2)
        overlaps = dict(halo_neighbors(sg, center, 2))
        # face neighbours contribute 2x4 strips, corners 2x2
        areas = sorted(r.area for r in overlaps.values())
        assert areas == [4, 4, 4, 4, 8, 8, 8, 8]

    def test_halo_neighbors_large_radius_reaches_second_ring(self):
        """Radius larger than SD size: SDs two rings away appear."""
        sg = SubdomainGrid(20, 20, 5, 5)  # SDs are 4x4 DPs
        center = sg.sd_id(2, 2)
        nbrs = halo_neighbors(sg, center, 6)
        ids = {sd for sd, _ in nbrs}
        assert sg.sd_id(0, 2) in ids  # two SDs to the left

    def test_halo_neighbors_exclude_self(self):
        sg = SubdomainGrid(8, 8, 2, 2)
        for sd in range(4):
            assert sd not in {s for s, _ in halo_neighbors(sg, sd, 3)}

    def test_ownership_grid_shape(self):
        sg = SubdomainGrid(20, 20, 5, 4)
        grid = sg.ownership_grid(np.arange(20))
        assert grid.shape == (4, 5)
        assert grid[0, 0] == 0 and grid[3, 4] == 19

    def test_ownership_grid_length_checked(self):
        sg = SubdomainGrid(8, 8, 2, 2)
        with pytest.raises(ValueError):
            sg.ownership_grid(np.zeros(5))

    @given(mesh=st.integers(8, 40), sds=st.integers(1, 8), radius=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_halo_overlaps_tile_halo_minus_own(self, mesh, sds, radius):
        """Union of overlap rects == halo minus own rect, disjointly."""
        if sds > mesh:
            sds = mesh
        sg = SubdomainGrid(mesh, mesh, sds, sds)
        sd = sg.num_subdomains // 2
        halo = halo_rect(sg, sd, radius)
        cover = np.zeros((mesh, mesh), dtype=int)
        for _, r in halo_neighbors(sg, sd, radius):
            cover[r.slices()] += 1
        own = np.zeros((mesh, mesh), dtype=bool)
        own[sg.rect(sd).slices()] = True
        in_halo = np.zeros((mesh, mesh), dtype=bool)
        in_halo[halo.slices()] = True
        expected = in_halo & ~own
        assert np.array_equal(cover > 0, expected)
        assert cover.max() <= 1  # disjoint


grids = st.tuples(st.integers(4, 30), st.integers(4, 30),
                  st.integers(1, 7), st.integers(1, 7)).map(
    lambda t: SubdomainGrid(t[0], t[1], min(t[2], t[0]), min(t[3], t[1])))


class TestGeometryArrays:
    """The grid's arrays equal the per-SD object walks, uneven cuts
    and rings beyond the first included."""

    @given(sg=grids)
    @settings(max_examples=60, deadline=None)
    def test_faces_and_centers_match_walks(self, sg):
        for sd in range(sg.num_subdomains):
            row = [nb for nb in sg.faces[sd].tolist() if nb >= 0]
            assert row == face_neighbors(sg, sd) == sg.face_rows[sd]
            assert tuple(sg.centers[sd].tolist()) == sd_center(sg, sd)
            rect = sg.rect(sd)
            assert sg.dp_shapes[sd].tolist() == [rect.height, rect.width]

    @given(sg=grids, radius=st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_halo_table_matches_halo_neighbors(self, sg, radius):
        table = sg.halo_table(radius)
        got = list(zip(table.dst.tolist(), table.src.tolist(),
                       table.nbytes.tolist()))
        want = [(sd, other, 8 * region.area)
                for sd in range(sg.num_subdomains)
                for other, region in halo_neighbors(sg, sd, radius)]
        assert got == want

    def test_halo_table_is_memoized_per_radius(self):
        sg = SubdomainGrid(20, 20, 5, 5)
        assert sg.halo_table(2) is sg.halo_table(2)
        assert sg.halo_table(3) is not sg.halo_table(2)

    def test_arrays_are_read_only(self):
        sg = SubdomainGrid(8, 8, 2, 2)
        for arr in (sg.faces, sg.centers, sg.dp_shapes):
            with pytest.raises(ValueError):
                arr[0, 0] = 1
