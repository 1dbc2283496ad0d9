#!/usr/bin/env python
"""Visualize communication/computation overlap as a text Gantt chart.

Reproduces the paper's Fig. 4 narrative as a picture: with the
Case-1/Case-2 split, each node starts its interior (Case-2) work
immediately while ghost messages fly; without the split, lanes show idle
time at the start of each step.  One SD per node on a deliberately slow
network makes the difference visible.

Run:  python examples/overlap_gantt.py
"""

from repro import (DistributedSolver, NonlocalHeatModel, SubdomainGrid,
                   UniformGrid, block_partition)
from repro.amt import FlatTopology
from repro.reporting import TraceRecorder, render_gantt


def run(overlap: bool):
    grid = UniformGrid(128, 128)
    model = NonlocalHeatModel(epsilon=8 * grid.h)
    sd_grid = SubdomainGrid(128, 128, 2, 2)      # one SD per node
    net = FlatTopology(latency=2e-4, bandwidth=5e6)   # slow interconnect
    solver = DistributedSolver(model, grid, sd_grid,
                               block_partition(2, 2, 4), num_nodes=4,
                               network=net, compute_numerics=False,
                               overlap=overlap)
    trace = TraceRecorder(solver.cluster)
    res = solver.run(None, num_steps=3)
    return trace, res


def main() -> None:
    for overlap in (True, False):
        trace, res = run(overlap)
        title = ("WITH Case-1/Case-2 overlap (Sec. 6.3)" if overlap
                 else "WITHOUT overlap (every SD waits for its ghosts)")
        print(f"\n=== {title} ===")
        print(f"makespan: {res.makespan * 1e3:.3f} ms "
              f"(3 steps; '2' = Case-2/interior task, 's' = Case-1 or "
              f"whole-SD task, '.' = idle)")
        # relabel intervals for a readable legend
        for iv in trace.intervals:
            iv.label = "2" if iv.label.endswith("-c2") else "s"
        print(render_gantt(trace.intervals, res.makespan, width=68))


if __name__ == "__main__":
    main()
