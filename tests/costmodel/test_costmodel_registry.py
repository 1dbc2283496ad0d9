"""Cost-model selection: unresolved ``"auto"`` falls back to the
``flat`` default — the seed arithmetic — so every pre-existing scenario
and golden is untouched.  The shared registry semantics are tested
once, in ``tests/test_name_registry.py``.
"""

import pytest

from repro.costmodel import (DEFAULT, CostModel, FlatCostModel,
                             HierarchyCostModel, WorkItem, cost_model_names,
                             make_cost_model)
from repro.costmodel.hierarchy import DEFAULT_HIERARCHY, MemoryHierarchy, \
    MemoryLevel

ALL_MODELS = cost_model_names()


class TestRegistry:
    def test_two_models_registered(self):
        assert ALL_MODELS == ["flat", "hierarchy"]

    def test_default_is_flat(self):
        assert DEFAULT == "flat"


class TestMakeCostModel:
    def test_auto_resolves_to_flat(self):
        model = make_cost_model()
        assert isinstance(model, FlatCostModel)
        assert model.name == "flat"

    def test_memory_reaches_the_hierarchy_model(self):
        ladder = MemoryHierarchy(levels=(
            MemoryLevel("L1", 1024, 1e11, 1e-9),))
        model = make_cost_model("hierarchy", memory=ladder)
        assert model.memory is ladder
        # None means the model's own default
        assert make_cost_model("hierarchy").memory is DEFAULT_HIERARCHY

    def test_flat_ignores_memory(self):
        model = make_cost_model("flat", memory=DEFAULT_HIERARCHY)
        item = WorkItem(count=7, flops=26.0, work_factor=1.5,
                        backend="direct", rows=8, cols=8, radius=2)
        assert model.task_work(item) == 7 * 26.0 * 1.5


class TestSolverResolution:
    """The DistributedSolver resolves its cost model exactly like its
    kernel backend: spec name, else the ``auto`` → flat default."""

    def make_solver(self, **kw):
        from repro.mesh.grid import UniformGrid
        from repro.mesh.subdomain import SubdomainGrid
        from repro.partition.geometric import block_partition
        from repro.solver.distributed import DistributedSolver
        from repro.solver.model import NonlocalHeatModel
        grid = UniformGrid(16, 16)
        model = NonlocalHeatModel(epsilon=2 * grid.h)
        sg = SubdomainGrid(16, 16, 2, 2)
        return DistributedSolver(model, grid, sg, block_partition(2, 2, 2),
                                 num_nodes=2, compute_numerics=False, **kw)

    def test_default_is_flat(self):
        solver = self.make_solver()
        assert solver.cost_model_resolved == "flat"
        assert isinstance(solver.cost_model, FlatCostModel)

    def test_prebuilt_instance_accepted(self):
        prebuilt = HierarchyCostModel()
        solver = self.make_solver(cost_model=prebuilt)
        assert solver.cost_model is prebuilt
        assert solver.cost_model_resolved == "hierarchy"
        assert isinstance(prebuilt, CostModel)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown cost model"):
            self.make_solver(cost_model="oracle")

    def test_record_carries_the_resolved_model(self):
        from repro.experiments import build, run_scenario
        auto = run_scenario(build("quickstart", nx=16, sd_axis=2, nodes=2,
                                  steps=1))
        assert auto.spec["cost_model"] == "auto"
        assert auto.cost_model_resolved == "flat"
        pinned = run_scenario(build("quickstart", nx=16, sd_axis=2, nodes=2,
                                    steps=1).replace(cost_model="hierarchy"))
        assert pinned.spec["cost_model"] == "hierarchy"
        assert pinned.cost_model_resolved == "hierarchy"
