"""The stack-distance machinery: hierarchy pricing, offline profiles,
slowdown memoization, and the JSON round-trip of the new spec fields.
"""

import math

import pytest

from repro.costmodel import (FlatCostModel, HierarchyCostModel, WorkItem,
                             reuse_profile)
from repro.costmodel.hierarchy import (DEFAULT_HIERARCHY, MemoryHierarchy,
                                       MemoryLevel)
from repro.experiments.spec import ClusterSpec, MemoryLevelSpec, MemorySpec

L1 = MemoryLevel("L1", 1024, 4e11, 1e-9)
L2 = MemoryLevel("L2", 64 * 1024, 2e11, 4e-9)
LADDER = MemoryHierarchy(levels=(L1, L2),
                         dram_bandwidth=2e10, dram_latency=8e-8)


class TestMemoryHierarchy:
    def test_access_hits_first_fitting_level(self):
        assert LADDER.access_time(512) == L1.latency + 8.0 / L1.bandwidth
        assert LADDER.access_time(1024) == L1.latency + 8.0 / L1.bandwidth
        assert LADDER.access_time(2048) == L2.latency + 8.0 / L2.bandwidth

    def test_oversized_window_falls_through_to_dram(self):
        dram = LADDER.dram_latency + 8.0 / LADDER.dram_bandwidth
        assert LADDER.access_time(10 * 1024 * 1024) == dram
        assert LADDER.access_time(math.inf) == dram

    def test_levels_must_be_ordered_by_capacity(self):
        with pytest.raises(ValueError, match="ordered by capacity"):
            MemoryHierarchy(levels=(L2, L1))

    def test_bad_level_and_dram_parameters_rejected(self):
        with pytest.raises(ValueError, match="bad memory level"):
            MemoryHierarchy(levels=(MemoryLevel("L1", 0, 1e11, 1e-9),))
        with pytest.raises(ValueError, match="bad DRAM"):
            MemoryHierarchy(levels=(L1,), dram_bandwidth=-1.0)

    def test_default_ladder_is_three_deep_and_monotone(self):
        caps = [lv.capacity for lv in DEFAULT_HIERARCHY.levels]
        assert len(caps) == 3 and caps == sorted(caps)
        # access cost must grow down the ladder
        times = [DEFAULT_HIERARCHY.access_time(c) for c in caps]
        assert times == sorted(times)
        assert DEFAULT_HIERARCHY.access_time(caps[-1] * 2) > times[-1]


class TestReuseProfiles:
    def test_distances_are_a_distribution(self):
        for backend in ("direct", "fft", "sparse"):
            prof = reuse_profile(backend, 16, 16, 2)
            assert prof.accesses_per_dp > 0
            assert sum(p for _, p in prof.distances) == pytest.approx(1.0)

    def test_unknown_backend_gets_the_streaming_profile(self):
        unknown = reuse_profile("quantum", 16, 16, 2)
        sparse = reuse_profile("sparse", 16, 16, 2)
        assert unknown.accesses_per_dp == sparse.accesses_per_dp
        assert unknown.distances == sparse.distances

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="bad block shape"):
            reuse_profile("direct", 0, 16, 2)
        with pytest.raises(ValueError, match="bad block shape"):
            reuse_profile("direct", 16, 16, -1)

    def test_profiles_are_cached_like_the_operator_cache(self):
        reuse_profile.cache_clear()
        reuse_profile("direct", 8, 8, 2)
        first = reuse_profile.cache_info()
        assert first.misses == 1
        again = reuse_profile("direct", 8, 8, 2)
        assert reuse_profile.cache_info().hits == first.hits + 1
        assert again is reuse_profile("direct", 8, 8, 2)

    def test_sparse_streams_mostly_to_dram(self):
        """The CSR profile's infinite-distance mass prices at DRAM no
        matter how large the caches are."""
        prof = reuse_profile("sparse", 8, 8, 2)
        assert any(math.isinf(d) for d, _ in prof.distances)
        t = prof.mem_time_per_dp(DEFAULT_HIERARCHY)
        dram = DEFAULT_HIERARCHY.dram_latency \
            + 8.0 / DEFAULT_HIERARCHY.dram_bandwidth
        assert t > prof.accesses_per_dp * dram * 0.5


class TestHierarchyCostModel:
    ITEM = WorkItem(count=64, flops=26.0, work_factor=1.5,
                    backend="direct", rows=8, cols=8, radius=2)

    def test_slowdown_scales_the_flat_work(self):
        model = HierarchyCostModel()
        flat = FlatCostModel()
        s = model.slowdown("direct", 8, 8, 2, 26.0)
        assert s > 1.0
        assert model.task_work(self.ITEM) == flat.task_work(self.ITEM) * s
        assert model.work_scale(self.ITEM) == s

    def test_shapeless_items_fall_back_to_flat(self):
        model = HierarchyCostModel()
        flat = FlatCostModel()
        for degenerate in (
                WorkItem(count=64, flops=26.0),                # no shape
                WorkItem(count=64, flops=26.0, rows=8, cols=8),  # no backend
                WorkItem(count=64, flops=26.0, backend="direct",
                         rows=0, cols=8),
                WorkItem(count=64, flops=0.0, backend="direct",
                         rows=8, cols=8)):
            assert model.task_work(degenerate) == flat.task_work(degenerate)
            assert model.work_scale(degenerate) == 1.0

    def test_slowdowns_are_memoized_per_model(self):
        model = HierarchyCostModel()
        assert model._slowdowns == {}
        first = model.task_work(self.ITEM)
        assert len(model._slowdowns) == 1
        assert model.task_work(self.ITEM) == first
        assert len(model._slowdowns) == 1

    def test_slowdown_is_deterministic_across_instances(self):
        a = HierarchyCostModel().task_work(self.ITEM)
        reuse_profile.cache_clear()
        b = HierarchyCostModel().task_work(self.ITEM)
        assert a == b

    def test_tighter_caches_cost_more(self):
        tiny = HierarchyCostModel(memory=MemoryHierarchy(levels=(
            MemoryLevel("L1", 256, 4e11, 1e-9),)))
        roomy = HierarchyCostModel(memory=DEFAULT_HIERARCHY)
        assert tiny.task_work(self.ITEM) > roomy.task_work(self.ITEM)


class TestMemorySpecRoundTrip:
    def test_level_spec_round_trips(self):
        lv = MemoryLevelSpec("L1", 32 * 1024, 4e11, 1e-9)
        assert MemoryLevelSpec.from_dict(lv.to_dict()) == lv

    def test_memory_spec_round_trips(self):
        spec = MemorySpec()
        clone = MemorySpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.build() == DEFAULT_HIERARCHY

    def test_memory_spec_validates_eagerly(self):
        big = MemoryLevelSpec("L3", 8 << 20, 1e11, 1.2e-8)
        small = MemoryLevelSpec("L1", 32 * 1024, 4e11, 1e-9)
        with pytest.raises(ValueError, match="ordered by capacity"):
            MemorySpec(levels=(big, small))
        with pytest.raises(ValueError, match="capacity"):
            MemoryLevelSpec("L1", -1, 4e11, 1e-9)

    def test_cluster_spec_carries_the_hierarchy(self):
        cluster = ClusterSpec(num_nodes=4, memory=MemorySpec())
        clone = ClusterSpec.from_dict(cluster.to_dict())
        assert clone == cluster
        assert clone.build_memory() == DEFAULT_HIERARCHY
        # legacy dicts (no memory key) and the default stay hierarchy-free
        d = ClusterSpec(num_nodes=4).to_dict()
        assert d["memory"] is None
        del d["memory"]
        assert ClusterSpec.from_dict(d).build_memory() is None

    def test_scenario_spec_round_trips_cost_model_fields(self):
        from repro.experiments import build
        spec = build("abl_costmodel", steps=1)
        assert spec.cost_model == "hierarchy"
        assert spec.cluster.memory is not None
        clone = type(spec).from_dict(spec.to_dict())
        assert clone == spec

    def test_service_spec_round_trips_cost_model(self):
        from repro.experiments import build
        from repro.service import ServiceSpec
        spec = build("service_poisson").replace(cost_model="hierarchy")
        clone = ServiceSpec.from_dict(spec.to_dict())
        assert clone == spec
        # legacy dicts predate the field: default back to auto
        d = spec.to_dict()
        del d["cost_model"]
        assert ServiceSpec.from_dict(d).cost_model == "auto"

    def test_unknown_cost_model_rejected_at_construction(self):
        from repro.experiments import build
        with pytest.raises(ValueError, match="unknown cost model"):
            build("quickstart").replace(cost_model="oracle")
        from repro.service import ServiceSpec
        with pytest.raises(ValueError, match="unknown cost model"):
            build("service_poisson").replace(cost_model="oracle")
