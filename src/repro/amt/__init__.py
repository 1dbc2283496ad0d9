"""HPX-like asynchronous many-task substrate.

Two runtimes share one futures API (:mod:`repro.amt.future`):

* :class:`repro.amt.executor.TaskExecutor` — a real thread pool used by
  the shared-memory solver (paper Sec. 8.2);
* :class:`repro.amt.cluster.SimCluster` — a discrete-event simulated
  cluster used by the distributed solver (paper Sec. 8.3), where numerics
  are real but time is virtual (see DESIGN.md substitution 1).

AGAS (:mod:`repro.amt.agas`) and performance counters
(:mod:`repro.amt.counters`) mirror the HPX components in the paper's
Fig. 3 that the load balancer depends on.
"""

from .agas import AddressSpace, AgasError
from .autoscale import (AUTOSCALE_PRIORITY, AutoscaleController,
                        AutoscaleObservation, AutoscalePolicy,
                        TargetUtilizationPolicy, node_seconds)
from .counters import BUSY_TIME, BusyTimeCounter, Counter, CounterRegistry
from .des import Event, SimulationError, Simulator
from .executor import TaskExecutor
from .future import (Future, FutureError, LocalFuture, Promise, dataflow,
                     local_when_all, make_exceptional_future,
                     make_ready_future, when_all)
from .cluster import (ConstantSpeed, PiecewiseSpeed, RampSpeed, SimCluster,
                      SimNode, SimTask, SpeedTrace, StraggleSpeed)
from .faults import (DEFAULT_RECOVERY_PENALTY, ChurnEvent, FaultSchedule,
                     RecoveryEvent)
from .topology import (FlatTopology, HierarchicalTopology, LinkHop,
                       SwitchedTopology, Topology, topology_names)

__all__ = [
    "AddressSpace", "AgasError",
    "AUTOSCALE_PRIORITY", "AutoscaleController", "AutoscaleObservation",
    "AutoscalePolicy", "TargetUtilizationPolicy", "node_seconds",
    "BUSY_TIME", "BusyTimeCounter", "Counter", "CounterRegistry",
    "Event", "SimulationError", "Simulator",
    "TaskExecutor",
    "Future", "FutureError", "LocalFuture", "Promise", "dataflow",
    "local_when_all", "make_exceptional_future", "make_ready_future",
    "when_all",
    "ConstantSpeed", "PiecewiseSpeed", "RampSpeed", "SimCluster",
    "SimNode", "SimTask", "SpeedTrace", "StraggleSpeed",
    "ChurnEvent", "FaultSchedule", "RecoveryEvent",
    "DEFAULT_RECOVERY_PENALTY",
    "Topology", "FlatTopology", "SwitchedTopology", "HierarchicalTopology",
    "LinkHop", "topology_names",
]
