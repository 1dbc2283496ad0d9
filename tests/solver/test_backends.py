"""Kernel-backend suite: auto selection and backend equivalence.

Every backend must compute the same operator as
:func:`apply_operator_reference` — the scipy-free oracle — across
random masks (including asymmetric ones, which pin the convolution
orientation), radii, block shapes, non-square grids and the 1-D
single-row-mask path.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.grid import UniformGrid
from repro.mesh.stencil import NonlocalStencil, build_stencil
from repro.solver.backends import (AUTO, KernelBackend,
                                   apply_operator_reference,
                                   auto_backend_name, backend_names,
                                   make_backend)
from repro.solver.backends.fft import _next_fast_len
from repro.solver.kernel import NonlocalOperator
from repro.solver.model import NonlocalHeatModel

ALL_BACKENDS = backend_names()


def random_stencil(rng, radius, single_row=False, symmetric=False):
    """A stencil with random non-negative weights (center included —
    backends must not assume the built-stencil zero center)."""
    side = 2 * radius + 1
    shape = (1, side) if single_row else (side, side)
    mask = rng.random(shape)
    if symmetric:
        mask = mask + mask[::-1, ::-1]
    return NonlocalStencil(mask, h=1.0, epsilon=float(max(radius, 1)))


def reference_padded(stencil, scale, padded):
    """Expected padded-block apply, derived from the full reference."""
    r = stencil.radius
    full = apply_operator_reference(stencil, scale, padded)
    return full[r:-r, r:-r] if r > 0 else full


class TestRegistry:
    def test_three_backends_registered(self):
        assert ALL_BACKENDS == ["direct", "fft", "sparse"]

    def test_auto_heuristic_picks_by_radius(self):
        assert auto_backend_name(1) == "direct"
        assert auto_backend_name(2) == "direct"
        assert auto_backend_name(3) == "fft"
        assert auto_backend_name(8) == "fft"

    def test_make_backend_resolves_auto(self):
        rng = np.random.default_rng(1)
        small = make_backend(AUTO, random_stencil(rng, 1), 1.0)
        large = make_backend(AUTO, random_stencil(rng, 4), 1.0)
        assert small.name == "direct"
        assert large.name == "fft"
        assert isinstance(small, KernelBackend)


class TestOperatorBackendSelection:
    def make_op(self, **kw):
        grid = UniformGrid(16, 16)
        model = NonlocalHeatModel(epsilon=4 * grid.h)
        return NonlocalOperator(model, grid, **kw)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_named_backend_used(self, backend):
        assert self.make_op(backend=backend).backend_name == backend

    def test_default_is_auto_heuristic(self):
        assert self.make_op().backend_name == "fft"  # R = 4

    def test_prebuilt_backend_instance_accepted(self):
        op = self.make_op(backend="direct")
        op2 = NonlocalOperator(op.model, op.grid, stencil=op.stencil,
                               backend=op.backend)
        assert op2.backend is op.backend

    def test_foreign_backend_instance_rejected(self):
        op = self.make_op(backend="direct")
        other = self.make_op(backend="direct")
        with pytest.raises(ValueError, match="different stencil"):
            NonlocalOperator(op.model, op.grid, stencil=op.stencil,
                             backend=other.backend)

    def test_backend_with_stale_scale_rejected(self):
        """A backend baked with another model's c*V prefactor must not
        be accepted just because the stencil object is shared."""
        op = self.make_op(backend="direct")
        hotter = NonlocalHeatModel(epsilon=op.model.epsilon,
                                   kappa=2.0 * op.model.kappa)
        with pytest.raises(ValueError, match="scale"):
            NonlocalOperator(hotter, op.grid, stencil=op.stencil,
                             backend=op.backend)


class TestSeededEquivalence:
    """Deterministic sweep over the shapes the solvers actually use."""

    CASES = [
        # (radius, single_row, grid shape)
        (1, False, (9, 9)),
        (2, False, (16, 16)),
        (3, False, (20, 13)),   # non-square
        (4, False, (9, 17)),    # non-square, grid dim == 2R + 1 on y
        (8, False, (40, 40)),   # the paper's eps = 8h mask
        (2, True, (1, 25)),     # 1-D model path
        (4, True, (1, 33)),
    ]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("radius,single_row,shape", CASES)
    def test_full_apply_matches_reference(self, backend, radius,
                                          single_row, shape):
        rng = np.random.default_rng(radius * 100 + shape[0])
        stencil = random_stencil(rng, radius, single_row=single_row)
        scale = 1.7
        u = rng.standard_normal(shape)
        expected = apply_operator_reference(stencil, scale, u)
        got = make_backend(backend, stencil, scale).apply_full(u)
        tol = 1e-12 * max(1.0, np.abs(expected).max())
        assert np.abs(got - expected).max() <= tol

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("radius,single_row,block", [
        (1, False, (5, 7)),
        (3, False, (6, 6)),
        (8, False, (10, 4)),
        (2, True, (1, 9)),
        (4, True, (1, 5)),
    ])
    def test_padded_apply_matches_reference(self, backend, radius,
                                            single_row, block):
        rng = np.random.default_rng(radius * 10 + block[1])
        stencil = random_stencil(rng, radius, single_row=single_row)
        scale = 0.9
        padded = rng.standard_normal((block[0] + 2 * radius,
                                      block[1] + 2 * radius))
        expected = reference_padded(stencil, scale, padded)
        got = make_backend(backend, stencil, scale).apply_padded(padded)
        assert got.shape == block
        tol = 1e-12 * max(1.0, np.abs(expected).max())
        assert np.abs(got - expected).max() <= tol

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_repeated_applies_reuse_cached_state(self, backend):
        """Per-shape state (FFT plans, CSR matrices) must not corrupt
        later applies of other shapes."""
        rng = np.random.default_rng(7)
        stencil = random_stencil(rng, 3)
        b = make_backend(backend, stencil, 1.0)
        for shape in [(12, 12), (9, 15), (12, 12), (7, 7), (9, 15)]:
            u = rng.standard_normal(shape)
            expected = apply_operator_reference(stencil, 1.0, u)
            for _ in range(2):
                got = b.apply_full(u)
                tol = 1e-12 * max(1.0, np.abs(expected).max())
                assert np.abs(got - expected).max() <= tol


class TestPropertyEquivalence:
    """Hypothesis sweep: random masks / radii / shapes / scales."""

    @given(radius=st.integers(1, 4),
           single_row=st.booleans(),
           ny=st.integers(1, 14),
           nx=st.integers(1, 14),
           scale=st.floats(0.1, 10.0),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_all_backends_match_reference_full(self, radius, single_row,
                                               ny, nx, scale, seed):
        rng = np.random.default_rng(seed)
        stencil = random_stencil(rng, radius, single_row=single_row)
        u = rng.standard_normal((1 if single_row else ny, nx))
        expected = apply_operator_reference(stencil, scale, u)
        tol = 1e-12 * max(1.0, np.abs(expected).max())
        for name in ALL_BACKENDS:
            got = make_backend(name, stencil, scale).apply_full(u)
            assert np.abs(got - expected).max() <= tol, name

    @given(radius=st.integers(1, 3),
           single_row=st.booleans(),
           bh=st.integers(1, 8),
           bw=st.integers(1, 8),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_all_backends_match_reference_padded(self, radius, single_row,
                                                 bh, bw, seed):
        rng = np.random.default_rng(seed)
        stencil = random_stencil(rng, radius, single_row=single_row)
        padded = rng.standard_normal(((1 if single_row else bh) + 2 * radius,
                                      bw + 2 * radius))
        expected = reference_padded(stencil, 1.3, padded)
        tol = 1e-12 * max(1.0, np.abs(expected).max())
        for name in ALL_BACKENDS:
            got = make_backend(name, stencil, 1.3).apply_padded(padded)
            assert got.shape == expected.shape, name
            assert np.abs(got - expected).max() <= tol, name

    @given(nx=st.sampled_from([8, 12, 16]),
           eps_factor=st.sampled_from([2, 3, 4]),
           dim=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_built_stencil_operator_agrees_across_backends(self, nx,
                                                           eps_factor, dim,
                                                           seed):
        """The production path: model-built stencils through
        NonlocalOperator, 1-D and 2-D."""
        grid = UniformGrid(nx, nx if dim == 2 else 1, dim=dim)
        model = NonlocalHeatModel(epsilon=eps_factor * grid.h, dim=dim)
        u = np.random.default_rng(seed).standard_normal(grid.shape)
        ops = [NonlocalOperator(model, grid, backend=b)
               for b in ALL_BACKENDS]
        results = [op.apply(u) for op in ops]
        tol = 1e-12 * max(1.0, np.abs(results[0]).max())
        for name, got in zip(ALL_BACKENDS[1:], results[1:]):
            assert np.abs(got - results[0]).max() <= tol, name


class TestFFTPlanBuffers:
    """The FFT backend transforms in buffers its plans keep; no result
    may alias them."""

    @given(radius=st.integers(1, 4),
           single_row=st.booleans(),
           shapes=st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)),
                           min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_applies_match_reference_and_stay_put(
            self, radius, single_row, shapes, seed):
        rng = np.random.default_rng(seed)
        stencil = random_stencil(rng, radius, single_row=single_row)
        backend = make_backend("fft", stencil, 1.7)
        results = []  # (result, its value when returned, reference)

        def check(got, expected):
            tol = 1e-12 * max(1.0, np.abs(expected).max())
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= tol
            results.append((got, got.copy(), expected))

        for ny, nx in shapes:
            ny = 1 if single_row else ny
            u = rng.standard_normal((ny, nx))
            check(backend.apply_full(u),
                  apply_operator_reference(stencil, 1.7, u))
            # a 2-D block padded around ``u`` transforms at ``u``'s FFT
            # shape; one row fewer shares it whenever the fast length
            # rounds both up to the same size (the spectrum rows past
            # the input must be zeroed again)
            for rows in (ny + 2 * radius, ny + 2 * radius - 1):
                if rows > 2 * radius:
                    padded = rng.standard_normal((rows, nx + 2 * radius))
                    check(backend.apply_padded(padded),
                          reference_padded(stencil, 1.7, padded))
        for got, returned, _ in results:
            np.testing.assert_array_equal(got, returned)

    def test_padded_block_shares_the_full_apply_plan(self):
        rng = np.random.default_rng(5)
        stencil = random_stencil(rng, 3)
        backend = make_backend("fft", stencil, 1.0)
        u = rng.standard_normal((8, 13))
        backend.apply_full(u)
        backend.apply_padded(np.pad(u, 3))
        backend.apply_padded(np.pad(u, 3)[1:])  # 13 rows round up to 14
        assert list(backend._plans) == [(14, 20)]

    def test_next_fast_len_matches_scipy(self):
        from scipy import fft as sfft
        assert [_next_fast_len(n) for n in range(1, 4097)] == [
            sfft.next_fast_len(n) for n in range(1, 4097)]


class TestSparseTiling:
    """The sparse backend cuts every apply into bounded output tiles."""

    @given(radius=st.integers(1, 3),
           single_row=st.booleans(),
           tile=st.integers(1, 5),
           oh=st.integers(1, 13),
           ow=st.integers(1, 13),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_tiled_apply_matches_reference(self, radius, single_row, tile,
                                           oh, ow, seed):
        from repro.solver.backends import sparse
        rng = np.random.default_rng(seed)
        stencil = random_stencil(rng, radius, single_row=single_row)
        padded = rng.standard_normal(((1 if single_row else oh) + 2 * radius,
                                      ow + 2 * radius))
        expected = reference_padded(stencil, 0.7, padded)
        with mock.patch.object(sparse, "_TILE", tile):
            got = make_backend("sparse", stencil, 0.7).apply_padded(padded)
        tol = 1e-12 * max(1.0, np.abs(expected).max())
        assert np.abs(got - expected).max() <= tol

    def test_cached_matrices_stay_within_one_tile(self):
        from repro.solver.backends.sparse import _TILE
        rng = np.random.default_rng(11)
        stencil = random_stencil(rng, 2)
        backend = make_backend("sparse", stencil, 1.0)
        u = rng.standard_normal((3 * _TILE + 5, 2 * _TILE + 1))
        expected = apply_operator_reference(stencil, 1.0, u)
        got = backend.apply_full(u)
        assert np.abs(got - expected).max() <= (
            1e-12 * max(1.0, np.abs(expected).max()))
        # interior, right-edge, bottom-edge and corner tiles
        assert len(backend._matrices) == 4
        for A in backend._matrices.values():
            assert A.shape[0] <= _TILE * _TILE


class TestReferenceOracle:
    def test_reference_matches_known_small_case(self):
        """Hand-checkable 1x3 mask on a 1x3 field."""
        stencil = NonlocalStencil(np.array([[2.0, 0.0, 5.0]]), 1.0, 1.0)
        u = np.array([[1.0, 10.0, 100.0]])
        # conv[i] = 2*u[i+1] + 5*u[i-1] (zero outside); S = 7
        expected = 1.0 * (np.array([[20.0, 200.0 + 5.0, 50.0]])
                          - 7.0 * u)
        got = apply_operator_reference(stencil, 1.0, u)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_reference_rejects_non_2d(self):
        stencil = NonlocalStencil(np.ones((1, 3)), 1.0, 1.0)
        with pytest.raises(ValueError, match="2-D"):
            apply_operator_reference(stencil, 1.0, np.zeros(5))

    def test_reference_matches_legacy_sparse_assembly(self):
        """The oracle agrees with the seed's loop-based sparse matrix."""
        from oracles import assemble_sparse_operator
        grid = UniformGrid(10, 10)
        model = NonlocalHeatModel(epsilon=3 * grid.h)
        A = assemble_sparse_operator(model, grid)
        stencil = build_stencil(grid.h, model.epsilon, model.influence)
        u = np.random.default_rng(3).standard_normal(grid.shape)
        ref = apply_operator_reference(stencil, model.c * grid.cell_volume, u)
        np.testing.assert_allclose(
            (A @ u.ravel()).reshape(grid.shape), ref, atol=1e-11)
