"""HPX-like asynchronous many-task substrate.

One runtime: :class:`repro.amt.cluster.SimCluster`, a discrete-event
simulated cluster whose tasks hand out HPX-style futures
(:mod:`repro.amt.future`).  It runs every solver schedule, the
shared-memory Figs. 9-10 as one simulated multi-core node and the
distributed Figs. 11-14 as many nodes (paper Secs. 8.2-8.3); numerics are
real but time is virtual (see DESIGN.md substitution 1).

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
from .future import Future, FutureError, when_all
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
    "Future", "FutureError", "when_all",
    "ConstantSpeed", "PiecewiseSpeed", "RampSpeed", "SimCluster",
    "SimNode", "SimTask", "SpeedTrace", "StraggleSpeed",
    "ChurnEvent", "FaultSchedule", "RecoveryEvent",
    "DEFAULT_RECOVERY_PENALTY",
    "Topology", "FlatTopology", "SwitchedTopology", "HierarchicalTopology",
    "LinkHop", "topology_names",
]
