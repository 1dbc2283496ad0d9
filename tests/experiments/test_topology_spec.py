"""TopologySpec validation, round-trips, and cluster/partition wiring."""

import json

import pytest

from repro.amt.topology import (FlatTopology, HierarchicalTopology,
                                SwitchedTopology)
from repro.experiments import (ClusterSpec, PartitionSpec, ScenarioSpec,
                               TopologySpec, build)


class TestTopologySpecValidation:
    def test_defaults(self):
        t = TopologySpec()
        assert t.kind == "flat"
        assert isinstance(t.build(4), FlatTopology)

    @pytest.mark.parametrize("kwargs", [
        dict(kind="torus"),
        dict(rack_size=0),
        dict(oversubscription=0.0),
        dict(kind="switched", latency=-1.0),
        dict(kind="switched", bandwidth=0.0),
        dict(kind="switched", uplink_bandwidth=-5.0),
        dict(kind="hierarchical", wan_racks=(-1,)),
        dict(kind="hierarchical", racks=(0, -2)),
        dict(kind="hierarchical", join_rack=-1),
        # tier fields gated to the kinds that use them
        dict(kind="flat", uplink_latency=1e-5),
        dict(kind="flat", racks=(0, 0)),
        dict(kind="switched", wan_latency=1.0),
        dict(kind="switched", join_rack=0),
        dict(kind="flat", oversubscription=2.0),
        dict(kind="hierarchical", oversubscription=64.0),
        # join_rack without an initial racks assignment would swallow
        # the whole cluster into one rack
        dict(kind="hierarchical", join_rack=1),
        # both size the uplink: the record would lie about one of them
        dict(kind="switched", oversubscription=16.0, uplink_bandwidth=1e9),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TopologySpec(**kwargs)

    def test_float_coercible_strings_accepted(self):
        """Hand-edited JSON specs may carry numeric strings; they must
        coerce, and the range check must see the coerced value."""
        t = TopologySpec(kind="switched", latency="5e-6", bandwidth="1e9")
        assert t.latency == 5e-6 and t.bandwidth == 1e9
        with pytest.raises(ValueError, match="bandwidth"):
            TopologySpec(kind="switched", bandwidth="-1e9")

    def test_wan_joiner_scales_with_nodes(self):
        """The scenario derives racks and the fail target from nodes."""
        for nodes in (2, 4, 8):
            spec = build("wan_joiner", nodes=nodes)
            topo = spec.cluster.topology
            assert len(topo.racks) == nodes
            assert topo.join_rack == topo.racks[-1] + 1
            fails = [e for e in spec.cluster.faults.events
                     if e.kind == "fail"]
            assert fails[0].node == nodes - 1
        with pytest.raises(ValueError, match="nodes"):
            build("wan_joiner", nodes=1)

    def test_build_kinds(self):
        assert isinstance(TopologySpec(kind="switched").build(4),
                          SwitchedTopology)
        assert isinstance(TopologySpec(kind="hierarchical").build(4),
                          HierarchicalTopology)

    def test_wrong_length_rack_list_fails_eagerly(self):
        t = TopologySpec(kind="hierarchical", racks=(0, 1))
        with pytest.raises(ValueError, match="rack ids"):
            t.build(4)
        # and already at ClusterSpec construction, not mid-sweep
        with pytest.raises(ValueError, match="rack ids"):
            ClusterSpec(num_nodes=4, topology=t)
        # too long is rejected too: extra entries would silently
        # override join_rack for sequential-id elastic joiners
        long = TopologySpec(kind="hierarchical", racks=(0, 0, 1, 1, 1),
                            join_rack=2, wan_racks=(2,))
        with pytest.raises(ValueError, match="rack ids"):
            ClusterSpec(num_nodes=4, topology=long)

    def test_cluster_latency_feeds_nic_tier(self):
        c = ClusterSpec(num_nodes=4, latency=3e-5, bandwidth=2e6,
                        topology=TopologySpec(kind="switched"))
        net = c.build_network()
        assert net.latency == 3e-5
        assert net.bandwidth == 2e6
        # the topology's own values win over the cluster's
        c2 = ClusterSpec(num_nodes=4, latency=3e-5,
                         topology=TopologySpec(kind="switched",
                                               latency=9e-5))
        assert c2.build_network().latency == 9e-5

    def test_uplink_params_flow_to_hierarchical_rack_tier(self):
        t = TopologySpec(kind="hierarchical", uplink_latency=7e-5,
                         uplink_bandwidth=5e6)
        net = t.build(4)
        assert net.rack_latency == 7e-5
        assert net.rack_bandwidth == 5e6


class TestTopologySpecRoundTrip:
    @pytest.mark.parametrize("spec", [
        TopologySpec(),
        TopologySpec(kind="switched", rack_size=8, oversubscription=16.0,
                     uplink_latency=1e-5),
        TopologySpec(kind="hierarchical", racks=(0, 0, 1, 1), join_rack=2,
                     wan_racks=(2,), wan_latency=1e-3, wan_bandwidth=1e6),
    ])
    def test_dict_round_trip(self, spec):
        assert TopologySpec.from_dict(spec.to_dict()) == spec
        # and through JSON (the sweep-runner contract)
        assert TopologySpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_cluster_spec_embeds_topology(self):
        c = ClusterSpec(num_nodes=8,
                        topology=TopologySpec(kind="switched"))
        back = ClusterSpec.from_dict(c.to_dict())
        assert back == c
        assert back.topology.kind == "switched"

    def test_cluster_spec_accepts_topology_dict(self):
        c = ClusterSpec.from_dict(
            {"num_nodes": 4,
             "topology": {"kind": "switched", "rack_size": 2}})
        assert isinstance(c.topology, TopologySpec)
        assert c.topology.rack_size == 2

    def test_legacy_cluster_dicts_default_to_flat_network(self):
        d = ClusterSpec(num_nodes=4).to_dict()
        del d["topology"]   # a pre-v4 record
        c = ClusterSpec.from_dict(d)
        assert c.topology is None
        assert isinstance(c.build_network(), FlatTopology)

    def test_scenario_round_trip_with_topology_and_placement(self):
        spec = build("oversubscribed_uplink", placement="scatter")
        back = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert back == spec

    def test_with_topology_helper(self):
        spec = build("fig11_strong_distributed")
        assert spec.cluster.topology is None
        switched = spec.with_topology("switched")
        assert switched.cluster.topology.kind == "switched"
        assert switched.with_topology(None).cluster.topology is None


class TestPartitionPlacementSpec:
    def test_placement_validated(self):
        with pytest.raises(ValueError, match="placement"):
            PartitionSpec(placement="optimal")

    def test_placement_round_trips(self):
        p = PartitionSpec(method="metis", placement="rack")
        assert PartitionSpec.from_dict(p.to_dict()) == p

    def test_legacy_partition_dicts_default_to_none(self):
        d = PartitionSpec().to_dict()
        del d["placement"]
        assert PartitionSpec.from_dict(d).placement == "none"

    def test_build_parts_applies_placement(self):
        import numpy as np
        from repro.experiments import build_parts
        spec = build("oversubscribed_uplink", placement="scatter")
        scattered = build_parts(spec)
        plain = build_parts(spec.replace(
            partition=spec.partition.__class__(
                method="metis", seed=spec.partition.seed,
                placement="none")))
        # a pure relabeling: same label set, same SD grouping, new map
        assert set(scattered) == set(plain)
        assert list(scattered) != list(plain)
        assert sorted(np.bincount(scattered)) == sorted(np.bincount(plain))
        relabel = {}
        for old, new in zip(plain, scattered):
            assert relabel.setdefault(old, new) == new
