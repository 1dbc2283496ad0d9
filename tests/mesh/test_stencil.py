"""Tests for nonlocal stencil construction."""

import numpy as np
import pytest

from repro.mesh.stencil import NonlocalStencil, build_stencil
from repro.solver.model import (constant_influence, gaussian_influence,
                                linear_influence)


class TestBuildStencil:
    def test_radius_matches_eps_over_h(self):
        st = build_stencil(h=0.1, epsilon=0.8, influence=constant_influence)
        assert st.radius == 8

    def test_exact_multiple_includes_boundary_point(self):
        """eps = 2h must include the DP at distance exactly 2h."""
        st = build_stencil(h=0.5, epsilon=1.0, influence=constant_influence)
        assert st.radius == 2
        # axis point at offset (2, 0): distance = 2h = eps, included
        assert st.mask[2, 4] == 1.0

    def test_center_excluded(self):
        st = build_stencil(h=0.1, epsilon=0.3, influence=constant_influence)
        assert st.mask[st.radius, st.radius] == 0.0

    def test_corners_outside_ball_are_zero(self):
        st = build_stencil(h=0.1, epsilon=0.3, influence=constant_influence)
        assert st.mask[0, 0] == 0.0  # distance 3*sqrt(2)h > 3h

    def test_mask_is_symmetric(self):
        st = build_stencil(h=0.1, epsilon=0.4, influence=linear_influence)
        assert np.allclose(st.mask, st.mask[::-1, :])
        assert np.allclose(st.mask, st.mask[:, ::-1])
        assert np.allclose(st.mask, st.mask.T)

    def test_neighbor_count_approximates_ball_area(self):
        """For large R, #neighbors ~ pi R^2."""
        st = build_stencil(h=0.01, epsilon=0.2, influence=constant_influence)
        R = st.radius
        assert st.num_neighbors == pytest.approx(np.pi * R * R, rel=0.05)

    def test_constant_weights_are_one(self):
        st = build_stencil(h=0.1, epsilon=0.25, influence=constant_influence)
        nz = st.mask[st.mask > 0]
        assert np.all(nz == 1.0)

    def test_linear_influence_decays(self):
        st = build_stencil(h=0.1, epsilon=0.8, influence=linear_influence)
        R = st.radius
        # nearest axis neighbour has higher weight than farthest
        assert st.mask[R, R + 1] > st.mask[R, 2 * R]

    def test_gaussian_influence_positive(self):
        st = build_stencil(h=0.1, epsilon=0.5, influence=gaussian_influence)
        assert st.weight_sum > 0

    def test_1d_stencil(self):
        st = build_stencil(h=0.1, epsilon=0.3, influence=constant_influence, dim=1)
        assert st.mask.shape == (1, 7)
        assert st.mask[0, 3] == 0.0  # center
        assert st.weight_sum == 6.0

    def test_validation(self):
        with pytest.raises(ValueError, match="h must be positive"):
            build_stencil(0.0, 1.0, constant_influence)
        with pytest.raises(ValueError, match="must be >="):
            build_stencil(0.5, 0.1, constant_influence)
        with pytest.raises(ValueError, match="dim"):
            build_stencil(0.1, 0.2, constant_influence, dim=3)

    def test_negative_influence_rejected(self):
        from repro.solver.model import InfluenceFunction
        bad = InfluenceFunction("bad", lambda r: -np.ones_like(r))
        with pytest.raises(ValueError, match="negative"):
            build_stencil(0.1, 0.2, bad)


class TestNonlocalStencil:
    def test_mask_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            NonlocalStencil(np.zeros(5), 0.1, 0.2)
        with pytest.raises(ValueError, match="odd"):
            NonlocalStencil(np.zeros((4, 4)), 0.1, 0.2)
        with pytest.raises(ValueError, match="square or a single row"):
            NonlocalStencil(np.zeros((3, 5)), 0.1, 0.2)

    def test_single_row_mask(self):
        """A ``(1, 2k+1)`` single-row mask is a valid (1-D) stencil
        whose radius comes from its width."""
        mask = np.array([[1.0, 2.0, 0.0, 2.0, 1.0]])
        st = NonlocalStencil(mask, h=0.1, epsilon=0.2)
        assert st.radius == 2
        np.testing.assert_array_equal(st.mask, mask)

    @pytest.mark.parametrize("influence", [
        constant_influence, linear_influence, gaussian_influence])
    def test_built_1d_stencil_matches_square_central_row(self, influence):
        """The 1-D stencil's only row carries the same weights as the
        central row of the 2-D stencil at the same (h, eps)."""
        s1 = build_stencil(h=0.1, epsilon=0.35, influence=influence, dim=1)
        s2 = build_stencil(h=0.1, epsilon=0.35, influence=influence, dim=2)
        assert s1.mask.shape == (1, 2 * s2.radius + 1)
        np.testing.assert_allclose(s1.mask[0], s2.mask[s2.radius],
                                   atol=1e-15)

    def test_weight_sum(self):
        mask = np.array([[0.0, 1.0, 0.0],
                         [1.0, 0.0, 1.0],
                         [0.0, 1.0, 0.0]])
        st = NonlocalStencil(mask, 0.1, 0.1)
        assert st.weight_sum == 4.0
        assert st.num_neighbors == 4
