"""Tests for the crack workload model."""

import numpy as np
import pytest

from repro.mesh.subdomain import SubdomainGrid
from repro.models.crack import Crack, crack_work_factors, _segments_intersect

#: a horizontal crack across the unit square at y = 0.5
MIDLINE = Crack([(0.0, 0.5), (1.0, 0.5)])


class TestSegmentIntersection:
    def test_crossing(self):
        assert _segments_intersect((0, 0), (1, 1), (0, 1), (1, 0))

    def test_parallel_disjoint(self):
        assert not _segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_touching_endpoint(self):
        assert _segments_intersect((0, 0), (1, 0), (1, 0), (1, 1))

    def test_collinear_overlap(self):
        assert _segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))

    def test_collinear_disjoint(self):
        assert not _segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_t_junction(self):
        assert _segments_intersect((0, 0), (2, 0), (1, -1), (1, 1))


class TestCrack:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            Crack([(0, 0)])

    def test_segments(self):
        c = Crack([(0, 0), (0.5, 0.5), (1, 0)])
        assert len(c.segments) == 2

    def test_severs_crossing_bond(self):
        c = MIDLINE
        assert c.severs((0.3, 0.4), (0.3, 0.6))

    def test_does_not_sever_parallel_bond(self):
        c = MIDLINE
        assert not c.severs((0.2, 0.4), (0.8, 0.4))

    def test_partial_crack_extent(self):
        c = Crack([(0.0, 0.5), (0.4, 0.5)])
        assert c.severs((0.2, 0.4), (0.2, 0.6))
        assert not c.severs((0.8, 0.4), (0.8, 0.6))

    def test_diagonal_factory(self):
        c = Crack.diagonal()
        assert c.severs((0.4, 0.6), (0.6, 0.4))


class TestWorkFactors:
    def test_crack_free_sds_have_factor_one(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        crack = MIDLINE
        wf = crack_work_factors(sg, crack, horizon=0.05)
        # SDs in the top and bottom rows are far from y=0.5
        assert wf[sg.sd_id(0, 0)] == 1.0
        assert wf[sg.sd_id(3, 3)] == 1.0

    def test_cracked_sds_have_reduced_factor(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        crack = MIDLINE
        wf = crack_work_factors(sg, crack, horizon=0.1)
        # SDs straddling y=0.5 (rows 1 and 2 touch it) are lightened
        mid = wf[sg.sd_id(1, 1)]
        assert mid < 1.0

    def test_factors_bounded_by_floor(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        crack = MIDLINE
        wf = crack_work_factors(sg, crack, horizon=0.3, floor=0.4)
        assert np.all(wf >= 0.4 - 1e-12)
        assert np.all(wf <= 1.0 + 1e-12)

    def test_longer_horizon_affects_more_sds(self):
        sg = SubdomainGrid(32, 32, 8, 8)
        crack = MIDLINE
        near = crack_work_factors(sg, crack, horizon=0.03)
        far = crack_work_factors(sg, crack, horizon=0.2)
        assert (far < 1.0).sum() >= (near < 1.0).sum()

    def test_diagonal_crack_asymmetric_footprint(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        wf = crack_work_factors(sg, Crack.diagonal(), horizon=0.1)
        # diagonal SDs are lightened, the far corners are not
        assert wf[sg.sd_id(0, 0)] < 1.0
        assert wf[sg.sd_id(3, 0)] == 1.0

    def test_validation(self):
        sg = SubdomainGrid(8, 8, 2, 2)
        crack = MIDLINE
        with pytest.raises(ValueError, match="floor"):
            crack_work_factors(sg, crack, horizon=0.1, floor=0.0)
        with pytest.raises(ValueError, match="samples"):
            crack_work_factors(sg, crack, horizon=0.1, samples_per_sd=1)
