"""Tests for direction-uniform SD transfer selection."""

import numpy as np
import pytest

from repro.core.transfer import (apply_transfers, naive_select_transfers,
                                 select_transfers)
from repro.mesh.subdomain import SubdomainGrid
from repro.partition.graph import grid_dual_graph
from repro.partition.metrics import parts_are_contiguous


def halves(sds=4):
    """Left half node 0, right half node 1."""
    sg = SubdomainGrid(4 * sds, 4 * sds, sds, sds)
    parts = np.zeros(sds * sds, dtype=np.int64)
    for sd in range(sds * sds):
        ix, _ = sg.sd_coords(sd)
        parts[sd] = 1 if ix >= sds // 2 else 0
    return sg, parts


class TestSelectTransfers:
    def test_moves_requested_count(self):
        sg, parts = halves()
        plan = select_transfers(sg, parts, donor=1, receiver=0, count=3)
        assert plan.moved == 3
        assert plan.requested == 3

    def test_chosen_sds_belong_to_donor(self):
        sg, parts = halves()
        plan = select_transfers(sg, parts, donor=1, receiver=0, count=4)
        assert all(parts[sd] == 1 for sd in plan.sds)

    def test_first_pick_is_adjacent_to_receiver(self):
        sg, parts = halves()
        plan = select_transfers(sg, parts, donor=1, receiver=0, count=1)
        sd = plan.sds[0]
        assert any(parts[nb] == 0 for nb in sg.face_rows[sd])

    def test_zero_count_empty_plan(self):
        sg, parts = halves()
        plan = select_transfers(sg, parts, donor=1, receiver=0, count=0)
        assert plan.moved == 0

    def test_non_adjacent_nodes_transfer_nothing(self):
        sg = SubdomainGrid(16, 16, 4, 4)
        parts = np.ones(16, dtype=np.int64)
        parts[0] = 0   # node 0 has one corner SD
        parts[15] = 2  # node 2 the opposite corner
        plan = select_transfers(sg, parts, donor=2, receiver=0, count=1)
        assert plan.moved == 0

    def test_receiver_stays_contiguous(self):
        sg, parts = halves(sds=6)
        plan = select_transfers(sg, parts, donor=1, receiver=0, count=6)
        new = apply_transfers(parts, [plan])
        g = grid_dual_graph(6, 6)
        assert parts_are_contiguous(g, new)

    def test_donor_stays_contiguous_when_possible(self):
        sg, parts = halves(sds=6)
        plan = select_transfers(sg, parts, donor=1, receiver=0, count=8)
        new = apply_transfers(parts, [plan])
        g = grid_dual_graph(6, 6)
        assert parts_are_contiguous(g, new)

    def test_direction_uniform_spread(self):
        """Borrowing from a surrounding donor pulls from all sides, not
        one: receiver is the center SD, donor owns the rest of a 5x5."""
        sg = SubdomainGrid(20, 20, 5, 5)
        parts = np.ones(25, dtype=np.int64)
        center = sg.sd_id(2, 2)
        parts[center] = 0
        plan = select_transfers(sg, parts, donor=1, receiver=0, count=4)
        assert plan.moved == 4
        picked = {sg.sd_coords(sd) for sd in plan.sds}
        # the four face neighbours of the center, one per direction
        assert picked == {(1, 2), (3, 2), (2, 1), (2, 3)}

    def test_whole_donor_can_be_absorbed(self):
        sg, parts = halves()
        donor_size = int((parts == 1).sum())
        plan = select_transfers(sg, parts, donor=1, receiver=0,
                                count=donor_size)
        assert plan.moved == donor_size

    def test_count_capped_by_donor_size(self):
        sg, parts = halves()
        donor_size = int((parts == 1).sum())
        plan = select_transfers(sg, parts, donor=1, receiver=0,
                                count=donor_size + 5)
        assert plan.moved == donor_size

    def test_validation(self):
        sg, parts = halves()
        with pytest.raises(ValueError, match="count"):
            select_transfers(sg, parts, donor=1, receiver=0, count=-1)
        with pytest.raises(ValueError, match="differ"):
            select_transfers(sg, parts, donor=1, receiver=1, count=1)

    def test_input_parts_not_mutated(self):
        sg, parts = halves()
        keep = parts.copy()
        select_transfers(sg, parts, donor=1, receiver=0, count=3)
        assert np.array_equal(parts, keep)


class TestNaiveBaseline:
    def test_moves_count(self):
        sg, parts = halves()
        plan = naive_select_transfers(sg, parts, donor=1, receiver=0, count=3)
        assert plan.moved == 3

    def test_naive_picks_lowest_ids(self):
        sg, parts = halves()
        plan = naive_select_transfers(sg, parts, donor=1, receiver=0, count=1)
        frontier_min = min(sd for sd in range(16)
                           if parts[sd] == 1 and
                           any(parts[nb] == 0 for nb in sg.face_rows[sd]))
        assert plan.sds[0] == frontier_min


class TestApplyTransfers:
    def test_applies_ownership_changes(self):
        sg, parts = halves()
        plan = select_transfers(sg, parts, donor=1, receiver=0, count=2)
        new = apply_transfers(parts, [plan])
        assert (new == 0).sum() == (parts == 0).sum() + 2

    def test_stale_plan_rejected(self):
        sg, parts = halves()
        plan = select_transfers(sg, parts, donor=1, receiver=0, count=1)
        parts2 = parts.copy()
        parts2[plan.sds[0]] = 0  # already moved
        with pytest.raises(ValueError, match="no longer owned"):
            apply_transfers(parts2, [plan])
