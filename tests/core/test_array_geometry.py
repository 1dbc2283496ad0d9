"""The balancer's face-array gathers choose what the per-SD walks chose.

Hypothesis properties with the object forms of ``balance_oracles`` as
the oracle: on random SD grids, ownerships, busy times, work weights
and liveness masks, every strategy that routes through the transfer
policy (``tree``, ``diffusion``, ``greedy``) picks identical
``TransferPlan`` s — in ordinary steps, in joiner seeding and in
``evacuate_assignments`` — and lands on the identical ownership.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balance_oracles import use_object_forms
from repro.core.strategies import base, make_strategy
from repro.core.transfer import select_transfers
from repro.mesh.subdomain import SubdomainGrid


def _plans(plans):
    return [(p.donor, p.receiver, p.requested, list(p.sds)) for p in plans]


@st.composite
def ownerships(draw, joiners=False):
    """An SD grid (uneven cuts allowed), an ownership over ``nodes``
    nodes, busy times, optional per-SD work, and an optional liveness
    mask (dead owners to evacuate, empty live nodes to seed)."""
    sd_x = draw(st.integers(2, 7))
    sd_y = draw(st.integers(2, 7))
    sg = SubdomainGrid(3 * sd_x + draw(st.integers(0, 2)),
                       3 * sd_y + draw(st.integers(0, 2)), sd_x, sd_y)
    nodes = draw(st.integers(2, 5))
    nsd = sg.num_subdomains
    owners = nodes - 1 if joiners else nodes
    parts = np.array(draw(st.lists(st.integers(0, owners - 1),
                                   min_size=nsd, max_size=nsd)))
    busy = draw(st.lists(st.floats(0.1, 10.0), min_size=nodes,
                         max_size=nodes))
    work = None
    if draw(st.booleans()):
        work = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=nsd,
                                      max_size=nsd)))
    active = None
    if joiners or draw(st.booleans()):
        active = np.array(draw(st.lists(st.booleans(), min_size=nodes,
                                        max_size=nodes)))
        if joiners:
            active[-1] = True
        if not active.any():
            active[0] = True
    return sg, parts, nodes, busy, work, active


def _both_ways(run):
    fast = run()
    with pytest.MonkeyPatch.context() as mp:
        use_object_forms(mp)
        slow = run()
    return fast, slow


@pytest.mark.parametrize("name", ["tree", "diffusion", "greedy"])
@pytest.mark.parametrize("joiners", [False, True], ids=["drift", "joiner"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_strategies_pick_identical_transfers(name, joiners, data):
    sg, parts, nodes, busy, work, active = data.draw(ownerships(joiners))
    strategy = make_strategy(name, sg)
    fast, slow = _both_ways(lambda: strategy.balance_step(
        parts, nodes, busy, work_per_sd=work, active=active))
    assert fast.triggered == slow.triggered
    assert np.array_equal(fast.parts_after, slow.parts_after)
    assert _plans(fast.plans) == _plans(slow.plans)


@given(case=ownerships())
@settings(max_examples=60, deadline=None)
def test_evacuation_picks_identical_transfers(case):
    sg, parts, nodes, _, work, active = case
    if active is None:
        active = np.arange(nodes) % 2 == 0
    fast, slow = _both_ways(lambda: base.evacuate_assignments(
        sg, parts, active, work))
    assert np.array_equal(fast[0], slow[0])
    assert _plans(fast[1]) == _plans(slow[1])


@given(case=ownerships(), count=st.integers(1, 6),
       preserve=st.booleans())
@settings(max_examples=60, deadline=None)
def test_select_transfers_identical(case, count, preserve):
    sg, parts, nodes, *_ = case
    donor, receiver = 0, 1
    fast, slow = _both_ways(lambda: select_transfers(
        sg, parts, donor, receiver, count,
        preserve_donor_connectivity=preserve))
    assert _plans([fast]) == _plans([slow])


@given(sd_x=st.integers(3, 10), sd_y=st.integers(3, 10),
       box=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
                     st.floats(0, 1)),
       count=st.integers(1, 24))
@settings(max_examples=60, deadline=None)
def test_select_transfers_identical_on_compact_regions(sd_x, sd_y, box,
                                                       count):
    """A compact receiver block inside the donor: distance ties are
    common, so the angular bins decide many picks."""
    sg = SubdomainGrid(2 * sd_x, 2 * sd_y, sd_x, sd_y)
    x0, x1 = sorted(int(v * sd_x) for v in box[:2])
    y0, y1 = sorted(int(v * sd_y) for v in box[2:])
    parts = np.ones(sg.num_subdomains, dtype=np.int64)
    for iy in range(y0, y1 + 1):
        for ix in range(x0, min(x1 + 1, sd_x)):
            parts[sg.sd_id(ix, min(iy, sd_y - 1))] = 0
    fast, slow = _both_ways(lambda: select_transfers(
        sg, parts, donor=1, receiver=0, count=count))
    assert _plans([fast]) == _plans([slow])
