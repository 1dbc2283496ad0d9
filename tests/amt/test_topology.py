"""Topology models: routing, contention, telemetry, seed-model equivalence.

Three layers:

* unit tests per topology (routes, rack maps, FIFO contention on
  NICs/uplinks/WAN links, state management);
* hypothesis property tests over random message schedules — the
  :class:`FlatTopology` must reproduce the seed network model's
  delivery times **bit-for-bit**, every topology's per-route-class byte
  telemetry must partition ``bytes_sent`` exactly, and replaying a
  schedule on a fresh instance must be deterministic;
* regression tests for the network-state bugfixes: per-run link-state
  reset (a reused ``network=`` instance must not delay the second run)
  and the failed node's egress release.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amt.topology import (FlatTopology, HierarchicalTopology, LinkHop,
                                SwitchedTopology, topology_names)


#: Factories, not instances: hypothesis re-runs a test body many times
#: and FIFO link state must start fresh for every example.
TOPOLOGY_FACTORIES = {
    "flat": FlatTopology,
    "flat-noserial": lambda: FlatTopology(latency=0.0, bandwidth=100.0,
                                          serialize_egress=False),
    "switched": lambda: SwitchedTopology(rack_size=2, latency=1e-6,
                                         bandwidth=1e8,
                                         oversubscription=8.0),
    "switched-3": lambda: SwitchedTopology(rack_size=3),
    "hier": lambda: HierarchicalTopology(rack_size=2),
    "hier-wan": lambda: HierarchicalTopology(
        racks=(0, 0, 1, 1), join_rack=2, wan_racks=(2,),
        wan_latency=1e-3, wan_bandwidth=1e6),
}


#: (src, dst, nbytes, dt>=0) tuples; the schedule walks now += dt.
_messages = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5),
              st.integers(0, 100_000),
              st.floats(0.0, 1e-3, allow_nan=False)),
    min_size=1, max_size=60)


def _replay(model, schedule):
    """Arrival times + final counters of a message schedule."""
    now, out = 0.0, []
    for src, dst, nbytes, dt in schedule:
        now += dt
        out.append(model.plan_send(src, dst, nbytes, now))
    return out, model.bytes_sent, model.messages_sent


class _EgressOracle:
    """The seed network model: one egress-free time per node, in a dict."""

    def __init__(self, latency=5e-6, bandwidth=1.25e9,
                 serialize_egress=True):
        self.latency, self.bandwidth = latency, bandwidth
        self.serialize_egress = serialize_egress
        self.egress_free = {}
        self.bytes_sent = self.messages_sent = 0

    def plan_send(self, src, dst, nbytes, now):
        if src == dst:
            return now
        self.bytes_sent += nbytes
        self.messages_sent += 1
        start = now
        if self.serialize_egress:
            start = max(now, self.egress_free.get(src, 0.0))
            self.egress_free[src] = start + nbytes / self.bandwidth
        return start + self.latency + nbytes / self.bandwidth


class TestFlatEqualsLegacyNetwork:
    """FlatTopology is the seed network model, bit-for-bit."""

    @given(schedule=_messages)
    @settings(max_examples=100, deadline=None)
    def test_delivery_times_bit_identical(self, schedule):
        legacy, flat = _EgressOracle(), FlatTopology()
        times_l, bytes_l, msgs_l = _replay(legacy, schedule)
        times_f, bytes_f, msgs_f = _replay(flat, schedule)
        assert times_l == times_f  # exact float equality, no approx
        assert (bytes_l, msgs_l) == (bytes_f, msgs_f)

    @given(schedule=_messages)
    @settings(max_examples=40, deadline=None)
    def test_non_serializing_variant_matches_too(self, schedule):
        legacy = _EgressOracle(latency=1e-4, bandwidth=1e7,
                               serialize_egress=False)
        flat = FlatTopology(latency=1e-4, bandwidth=1e7,
                            serialize_egress=False)
        assert _replay(legacy, schedule) == _replay(flat, schedule)

    def test_same_defaults(self):
        legacy, flat = _EgressOracle(), FlatTopology()
        assert flat.latency == legacy.latency
        assert flat.bandwidth == legacy.bandwidth


class TestTopologyProperties:
    @pytest.mark.parametrize("name", sorted(TOPOLOGY_FACTORIES))
    @given(schedule=_messages)
    @settings(max_examples=25, deadline=None)
    def test_byte_class_conservation(self, name, schedule):
        """Route classes partition the traffic exactly."""
        model = TOPOLOGY_FACTORIES[name]()
        _replay(model, schedule)
        assert sum(model.bytes_by_class.values()) == model.bytes_sent
        sent = sum(n for s, d, n, _ in schedule if s != d)
        assert model.bytes_sent == sent

    @pytest.mark.parametrize("name", sorted(TOPOLOGY_FACTORIES))
    @given(schedule=_messages)
    @settings(max_examples=25, deadline=None)
    def test_replay_deterministic(self, name, schedule):
        """Fresh instances replay a schedule to identical times."""
        factory = TOPOLOGY_FACTORIES[name]
        assert _replay(factory(), schedule) == _replay(factory(), schedule)

    @pytest.mark.parametrize("name", sorted(TOPOLOGY_FACTORIES))
    def test_routes_are_static(self, name):
        """route() is pure: repeated queries agree, sends don't mutate."""
        topo = TOPOLOGY_FACTORIES[name]()
        pairs = [(0, 3), (1, 4), (2, 5)]
        before = [[(h.key, h.latency, h.bandwidth, h.fifo)
                   for h in topo.route(s, d)] for s, d in pairs]
        for s, d in pairs:
            topo.plan_send(s, d, 1000, 0.0)
        after = [[(h.key, h.latency, h.bandwidth, h.fifo)
                  for h in topo.route(s, d)] for s, d in pairs]
        assert before == after

    @pytest.mark.parametrize("name", sorted(TOPOLOGY_FACTORIES))
    def test_self_send_free_and_uncounted(self, name):
        topo = TOPOLOGY_FACTORIES[name]()
        assert topo.plan_send(2, 2, 10_000, 5.0) == 5.0
        assert topo.bytes_sent == 0
        assert topo.bytes_by_class == {}

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="nbytes"):
            FlatTopology().plan_send(0, 1, -1, 0.0)

    def test_topology_names(self):
        assert topology_names() == ["flat", "switched", "hierarchical"]


class TestSwitchedTopology:
    def test_rack_map(self):
        sw = SwitchedTopology(rack_size=3)
        assert [sw.rack_of(n) for n in range(7)] == [0, 0, 0, 1, 1, 1, 2]

    def test_intra_rack_matches_flat(self):
        """Same-rack messages pay only the NIC — the flat cost."""
        sw = SwitchedTopology(rack_size=4, latency=2e-6, bandwidth=1e8)
        flat = FlatTopology(latency=2e-6, bandwidth=1e8)
        for nbytes in (0, 100, 65536):
            assert (sw.plan_send(0, 3, nbytes, 1.0)
                    == flat.plan_send(0, 3, nbytes, 1.0))

    def test_inter_rack_pays_uplink_and_downlink(self):
        sw = SwitchedTopology(rack_size=2, latency=0.0, bandwidth=100.0,
                              uplink_latency=0.5, uplink_bandwidth=50.0)
        # egress 1s wire, uplink 0.5 + 2s, downlink 0.5 + 2s
        assert sw.plan_send(0, 2, 100, 0.0) == pytest.approx(6.0)
        assert sw.route_class(0, 2) == "inter_rack"
        assert sw.route_class(0, 1) == "intra_rack"

    def test_uplink_contention_serializes_rack_peers(self):
        """Two nodes of one rack sending inter-rack queue on the shared
        uplink even though their NICs are independent."""
        sw = SwitchedTopology(rack_size=2, latency=0.0, bandwidth=1e9,
                              uplink_latency=0.0, uplink_bandwidth=100.0)
        t1 = sw.plan_send(0, 2, 100, 0.0)   # uplink busy until 1.0
        t2 = sw.plan_send(1, 3, 100, 0.0)   # different NIC, same uplink
        assert t2 > t1
        # and the destination rack's downlink serializes incast
        sw2 = SwitchedTopology(rack_size=2, latency=0.0, bandwidth=1e9,
                               uplink_latency=0.0, uplink_bandwidth=100.0)
        a = sw2.plan_send(0, 2, 100, 0.0)   # rack0 uplink, rack1 downlink
        b = sw2.plan_send(3, 1, 100, 0.0)   # rack1 uplink, rack0 downlink
        assert a == b  # opposite directions do not contend

    def test_oversubscription_scales_uplink_bandwidth(self):
        sw = SwitchedTopology(rack_size=4, bandwidth=1e9,
                              oversubscription=16.0)
        assert sw.uplink_bandwidth == pytest.approx(1e9 * 4 / 16)

    def test_validation(self):
        with pytest.raises(ValueError, match="rack_size"):
            SwitchedTopology(rack_size=0)
        with pytest.raises(ValueError, match="oversubscription"):
            SwitchedTopology(oversubscription=0.0)
        with pytest.raises(ValueError, match="uplink"):
            SwitchedTopology(uplink_bandwidth=-1.0)


class TestHierarchicalTopology:
    def test_rack_assignment_precedence(self):
        """Explicit racks, then join_rack for ids beyond the list."""
        h = HierarchicalTopology(rack_size=2, racks=(0, 0, 1), join_rack=5)
        assert [h.rack_of(n) for n in range(5)] == [0, 0, 1, 5, 5]
        # without join_rack, joiners fall back to node // rack_size
        h2 = HierarchicalTopology(rack_size=2, racks=(0, 0, 1))
        assert h2.rack_of(7) == 3

    def test_tier_costs_ordered(self):
        """intra-node < intra-rack < inter-rack < wan."""
        h = HierarchicalTopology(
            racks=(0, 0, 1, 1), join_rack=2, wan_racks=(2,),
            latency=1e-6, bandwidth=1e9, rack_latency=1e-5,
            rack_bandwidth=1e8, wan_latency=1e-2, wan_bandwidth=1e6)
        nbytes = 8192
        t_self = h.plan_send(0, 0, nbytes, 0.0)
        t_rack = h.plan_send(0, 1, nbytes, 0.0)
        t_inter = h.plan_send(0, 2, nbytes, 0.0)
        t_wan = h.plan_send(0, 4, nbytes, 0.0)
        assert t_self < t_rack < t_inter < t_wan
        assert h.route_class(0, 1) == "intra_rack"
        assert h.route_class(0, 2) == "inter_rack"
        assert h.route_class(0, 4) == "wan"
        assert h.route_class(4, 0) == "wan"

    def test_wan_rack_links_use_wan_tier(self):
        h = HierarchicalTopology(
            racks=(0, 1), join_rack=1, wan_racks=(1,),
            latency=0.0, bandwidth=1e9, wan_latency=2.0, wan_bandwidth=10.0)
        # egress ~0 + uplink (rack 0: rack tier) + downlink (rack 1: wan)
        hops = h.route(0, 1)
        assert [hop.key[0] for hop in hops] == ["egress", "uplink",
                                                "downlink"]
        assert hops[2].latency == 2.0 and hops[2].bandwidth == 10.0

    def test_validation(self):
        with pytest.raises(ValueError, match="rack ids"):
            HierarchicalTopology(racks=(0, -1))
        with pytest.raises(ValueError, match="join_rack"):
            HierarchicalTopology(join_rack=-2)
        with pytest.raises(ValueError, match="wan link"):
            HierarchicalTopology(wan_bandwidth=0.0)
        # join_rack without racks would put every node in the join
        # rack, silently flattening the whole cluster
        with pytest.raises(ValueError, match="racks"):
            HierarchicalTopology(join_rack=1)


class TestStateManagement:
    """The two network-state bugfix surfaces, at the model level."""

    @pytest.mark.parametrize("model_factory", [
        FlatTopology, lambda: SwitchedTopology(rack_size=2),
        lambda: HierarchicalTopology(rack_size=2),
    ])
    def test_reset_clears_link_backlog_and_counters(self, model_factory):
        model = model_factory()
        first = model.plan_send(0, 1, 10_000_000, 0.0)
        model.reset()
        assert model.bytes_sent == 0
        assert model.messages_sent == 0
        assert model.bytes_by_class == {}
        # the egress backlog is gone: a fresh-run send is undelayed
        assert model.plan_send(0, 1, 10_000_000, 0.0) == first

    def test_reset_stats_keeps_backlog(self):
        """The narrower contract: counters only."""
        model = FlatTopology()
        t1 = model.plan_send(0, 1, 10_000_000, 0.0)
        model.reset_stats()
        assert model.bytes_sent == 0
        assert model.plan_send(0, 2, 0, 0.0) > t1 - 1e-9  # still queued

    @pytest.mark.parametrize("model_factory", [
        FlatTopology, lambda: SwitchedTopology(rack_size=2),
        lambda: HierarchicalTopology(rack_size=2),
    ])
    def test_release_node_drops_private_reservation(self, model_factory):
        model = model_factory()
        model.plan_send(0, 1, 10_000_000, 0.0)   # big egress backlog
        baseline = model_factory().plan_send(0, 1, 100, 0.0)
        model.release_node(0)
        assert model.plan_send(0, 1, 100, 0.0) == baseline

    def test_release_node_keeps_shared_uplinks(self):
        """Messages already on a rack uplink still occupy the switch."""
        sw = SwitchedTopology(rack_size=2, latency=0.0, bandwidth=1e9,
                              uplink_latency=0.0, uplink_bandwidth=10.0)
        sw.plan_send(0, 2, 1000, 0.0)    # rack-0 uplink busy for 100s
        sw.release_node(0)
        # node 1 shares the uplink: still queued behind the wire time
        assert sw.plan_send(1, 3, 1000, 0.0) > 100.0

    def test_linkhop_repr_smoke(self):
        assert "egress" in repr(LinkHop(("egress", 0), 1e-6, 1e9))
