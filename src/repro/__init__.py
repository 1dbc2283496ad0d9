"""repro — reproduction of "Load balancing for distributed nonlocal
models within asynchronous many-task systems" (Gadikar, Diehl, Jha;
IPPS 2021, arXiv:2102.03819).

Quick tour of the public API (see README.md for a walkthrough):

>>> from repro import (UniformGrid, NonlocalHeatModel, ManufacturedProblem,
...                    SerialSolver)
>>> grid = UniformGrid(64, 64)
>>> model = NonlocalHeatModel(epsilon=8 * grid.h)
>>> problem = ManufacturedProblem(model, grid)
>>> solver = SerialSolver(model, grid, source=problem.source)
>>> result = solver.run(problem.initial_condition(), num_steps=20,
...                     exact=problem.exact)
>>> result.total_error < 1e-2
True

Sub-packages:

* :mod:`repro.amt` — HPX-like runtime (futures, simulated cluster,
  AGAS, performance counters, fault schedules, network topologies);
* :mod:`repro.partition` — from-scratch multilevel graph partitioner
  (METIS substitute) + geometric baselines + topology-aware placement;
* :mod:`repro.mesh` — grids, sub-domains, stencils, decomposition;
* :mod:`repro.solver` — serial and distributed solvers for the
  nonlocal heat equation, with pluggable kernel backends
  (:mod:`repro.solver.backends`: direct / fft / sparse);
* :mod:`repro.core` — the paper's load-balancing algorithm and its
  pluggable strategy alternatives (:mod:`repro.core.strategies`:
  tree / diffusion / greedy / repartition);
* :mod:`repro.models` — crack and node-interference workload models;
* :mod:`repro.reporting` — text rendering for the benchmark harness;
* :mod:`repro.experiments` — the declarative scenario/experiment engine
  (specs, registry, parallel sweep runner, structured results).
"""

from .amt import ConstantSpeed, PiecewiseSpeed, SimCluster
from .experiments import (ClusterSpec, MeshSpec, PartitionSpec, PolicySpec,
                          RunRecord, ScenarioSpec, TopologySpec,
                          build_scenario, run_scenario, run_sweep,
                          scenario_names)
from .core import (BalanceStrategy, IntervalPolicy, NeverBalance,
                   ThresholdPolicy, strategy_names)
from .mesh import Decomposition, SubdomainGrid, UniformGrid, build_stencil
from .models import Crack, crack_work_factors
from .partition import (block_partition, partition_graph, partition_sd_grid,
                        strip_partition)
from .solver import (DistributedSolver, ManufacturedProblem,
                     NonlocalHeatModel, SerialSolver, backend_names)

__version__ = "1.0.0"

__all__ = [
    "ConstantSpeed", "PiecewiseSpeed", "SimCluster",
    "BalanceStrategy", "IntervalPolicy", "NeverBalance", "ThresholdPolicy",
    "strategy_names",
    "Decomposition", "SubdomainGrid", "UniformGrid", "build_stencil",
    "Crack", "crack_work_factors",
    "block_partition", "partition_graph", "partition_sd_grid",
    "strip_partition",
    "DistributedSolver", "ManufacturedProblem",
    "NonlocalHeatModel", "SerialSolver", "backend_names",
    "MeshSpec", "ClusterSpec", "PartitionSpec", "PolicySpec",
    "ScenarioSpec", "TopologySpec", "RunRecord", "build_scenario",
    "run_scenario", "run_sweep", "scenario_names",
    "__version__",
]
