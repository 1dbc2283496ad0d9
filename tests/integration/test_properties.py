"""Cross-module property-based tests (hypothesis).

These pin down the structural invariants the reproduction leans on:
communication symmetry, cut/traffic consistency, balancer safety, and
operator spectral bounds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import make_strategy
from repro.mesh.decomposition import Decomposition
from repro.mesh.grid import UniformGrid
from repro.mesh.stencil import build_stencil
from repro.mesh.subdomain import SubdomainGrid
from repro.partition.graph import grid_dual_graph
from repro.partition.kway import partition_sd_grid
from repro.partition.metrics import edge_cut
from repro.solver.kernel import NonlocalOperator
from repro.solver.model import NonlocalHeatModel, constant_influence


class TestCommunicationInvariants:
    @given(seed=st.integers(0, 100), k=st.integers(2, 5),
           radius=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_ghost_exchange_is_symmetric_in_bytes(self, seed, k, radius):
        """For every ordered node pair, bytes A->B equal bytes B->A.

        The stencil ball is symmetric, so if B's SDs need a strip of A's
        data, A's SDs need the mirrored strip of B's.
        """
        sds = 6
        sg = SubdomainGrid(6 * sds, 6 * sds, sds, sds)
        parts = partition_sd_grid(sds, sds, k, seed=seed)
        decomp = Decomposition(sg, parts, k)
        ex = {}
        src_node, dst_node, _, _, nbytes = decomp.ghost_messages(radius)
        for src, dst, nbytes in zip(src_node, dst_node, nbytes):
            ex[(src, dst)] = ex.get((src, dst), 0) + nbytes
        for (a, b), nbytes in ex.items():
            assert ex.get((b, a), 0) == nbytes

    @given(seed=st.integers(0, 100), k=st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_zero_cut_iff_zero_ghost_bytes(self, seed, k):
        """Edge cut and ghost traffic vanish together."""
        sds = 6
        sg = SubdomainGrid(6 * sds, 6 * sds, sds, sds)
        g = grid_dual_graph(sds, sds)
        parts = partition_sd_grid(sds, sds, k, seed=seed)
        decomp = Decomposition(sg, parts, k)
        cut = edge_cut(g, parts)
        bytes_ = decomp.total_exchange_bytes(2)
        assert (cut == 0) == (bytes_ == 0)

    @given(radius=st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_case1_counts_bounded_by_total(self, radius):
        sds = 5
        sg = SubdomainGrid(5 * sds, 5 * sds, sds, sds)
        parts = partition_sd_grid(sds, sds, 3, seed=0)
        decomp = Decomposition(sg, parts, 3)
        case1 = decomp.case_split(radius)
        sizes = [sg.dp_count(sd) for sd in range(sg.num_subdomains)]
        assert sum(sizes) == (5 * sds) ** 2
        assert np.all((case1 >= 0) & (case1 <= sizes))


class TestBalancerSafety:
    @given(seed=st.integers(0, 200),
           busy=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_balance_step_output_is_always_a_valid_ownership(self, seed, busy):
        """Any busy-time vector yields a complete, in-range ownership."""
        sds = 6
        sg = SubdomainGrid(6 * sds, 6 * sds, sds, sds)
        lb = make_strategy("auto", sg)
        parts = partition_sd_grid(sds, sds, 4, seed=seed)
        res = lb.balance_step(parts, 4, busy)
        after = res.parts_after
        assert len(after) == sds * sds
        assert after.min() >= 0 and after.max() < 4
        # SD conservation: nothing created or destroyed
        assert np.bincount(after, minlength=4).sum() == sds * sds

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_noop_when_busy_times_match_loads(self, seed):
        """If busy time is exactly proportional to load (symmetric
        nodes), a balanced integer distribution must not move."""
        sds = 8
        sg = SubdomainGrid(8 * sds, 8 * sds, sds, sds)
        lb = make_strategy("auto", sg)
        from repro.partition.geometric import block_partition
        parts = block_partition(sds, sds, 4)  # exactly 16 SDs each
        counts = np.bincount(parts, minlength=4).astype(float)
        res = lb.balance_step(parts, 4, counts)
        assert res.sds_moved == 0


class TestOperatorSpectralBounds:
    @given(seed=st.integers(0, 50), eps_factor=st.sampled_from([2, 3, 4]))
    @settings(max_examples=15, deadline=None)
    def test_operator_norm_bounded_by_2cvs(self, seed, eps_factor):
        """|| L u || <= 2 c V S || u || — the bound behind stable_dt."""
        grid = UniformGrid(16, 16)
        model = NonlocalHeatModel(epsilon=eps_factor * grid.h)
        op = NonlocalOperator(model, grid)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(grid.shape)
        bound = 2 * model.c * grid.cell_volume * op.stencil.weight_sum
        assert np.linalg.norm(op.apply(u)) <= bound * np.linalg.norm(u) + 1e-9

    @given(eps_factor=st.sampled_from([2, 3, 4, 6]))
    @settings(max_examples=8, deadline=None)
    def test_stencil_weight_sum_tracks_ball_area(self, eps_factor):
        """S * h^2 approximates the ball area pi eps^2 (J = 1)."""
        h = 1.0 / 64
        st_ = build_stencil(h, eps_factor * h, constant_influence)
        area = st_.weight_sum * h * h
        expected = np.pi * (eps_factor * h) ** 2
        assert area == np.float64(area)
        assert abs(area - expected) / expected < 0.35  # coarse balls deviate

