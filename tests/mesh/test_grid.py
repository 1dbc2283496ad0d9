"""Tests for the uniform grid."""

import numpy as np
import pytest

from repro.mesh.grid import UniformGrid


class TestConstruction:
    def test_basic_2d(self):
        g = UniformGrid(10, 10)
        assert g.shape == (10, 10)
        assert g.h == pytest.approx(0.1)
        assert g.num_points == 100

    def test_rectangular(self):
        g = UniformGrid(10, 5)
        assert g.Lx == 1.0
        assert g.Ly == pytest.approx(0.5)

    def test_1d(self):
        g = UniformGrid(8, dim=1)
        assert g.shape == (1, 8)
        assert g.cell_volume == pytest.approx(1 / 8)

    def test_1d_requires_ny_1(self):
        with pytest.raises(ValueError, match="ny == 1"):
            UniformGrid(8, 4, dim=1)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            UniformGrid(0, 4)
        with pytest.raises(ValueError):
            UniformGrid(4, 4, dim=3)

    def test_cell_volume_2d(self):
        g = UniformGrid(20, 20)
        assert g.cell_volume == pytest.approx(g.h ** 2)


class TestCoordinates:
    def test_cell_centers_cover_unit_interval(self):
        g = UniformGrid(4, 4)
        assert list(g.x_coords()) == pytest.approx([0.125, 0.375, 0.625, 0.875])

    def test_meshgrid_shapes(self):
        g = UniformGrid(5, 3)
        X, Y = g.meshgrid()
        assert X.shape == (3, 5)
        assert Y.shape == (3, 5)

    def test_field_from_function_2d(self):
        g = UniformGrid(8, 8)
        f = g.field_from_function(lambda x, y: x + 2 * y)
        assert f.shape == g.shape
        assert f[0, 0] == pytest.approx(g.x_coords()[0] + 2 * g.y_coords()[0])

    def test_field_from_function_1d(self):
        g = UniformGrid(8, dim=1)
        f = g.field_from_function(lambda x: 3 * x)
        assert f.shape == (1, 8)
        assert f[0, -1] == pytest.approx(3 * g.x_coords()[-1])

    def test_zeros(self):
        g = UniformGrid(3, 4)
        z = g.zeros()
        assert z.shape == (4, 3)
        assert np.all(z == 0.0)
