#!/usr/bin/env python
"""Physics checks: the nonlocal -> local limit and an L-shaped domain.

Part 1 verifies the calibration of eq. (2): as the horizon eps shrinks,
the nonlocal operator converges to the classical k*Laplacian on the same
grid.

Part 2 exercises the future-work extension: a distributed solve on an
L-shaped domain (the notch is carved out with a DomainMask), with the
active region partitioned by the multilevel partitioner.

Run:  python examples/nonlocal_limits.py
"""

import numpy as np

from repro import NonlocalHeatModel, SubdomainGrid, UniformGrid
from repro.mesh import DomainMask
from repro.partition import partition_graph
from repro.reporting import print_table, render_ownership
from repro.solver import DistributedSolver, NonlocalOperator


def nonlocal_to_local() -> None:
    rows = []
    # shrink eps while keeping eps/h = 32 fixed: both error sources
    # (continuum O(eps^2) + ball quadrature O((h/eps)^2)) then vanish
    for n in (128, 256, 512):
        grid = UniformGrid(n, n)
        u = grid.field_from_function(
            lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
        # Laplacian of sin(2 pi x) sin(2 pi y) is -8 pi^2 u; k = 1
        exact_lap = -2.0 * (2 * np.pi) ** 2 * u
        model = NonlocalHeatModel(epsilon=32 * grid.h)
        op = NonlocalOperator(model, grid)
        applied = op.apply(u)
        m = n // 6  # compare away from the eps-wide boundary layer
        diff = np.abs(applied[m:-m, m:-m] - exact_lap[m:-m, m:-m]).max()
        rel = diff / np.abs(exact_lap).max()
        rows.append([f"{n}x{n}", f"{model.epsilon:.4f}", f"{rel:.4f}"])
    print_table(["mesh", "eps (= 32h)", "rel. error vs k*Laplacian"],
                rows,
                title="Part 1 — the nonlocal operator converges to "
                      "k*Laplacian as eps -> 0 (eq. 2 calibration); "
                      "error drops ~ eps^2")


def l_shape_solve() -> None:
    grid = UniformGrid(64, 64)
    model = NonlocalHeatModel(epsilon=4 * grid.h)
    sd_grid = SubdomainGrid(64, 64, 8, 8)
    mask = DomainMask.l_shape(sd_grid, notch=0.5)
    graph, _ = mask.active_dual_graph()
    parts = mask.scatter_parts(partition_graph(graph, 3, seed=0))

    print("\nPart 2 — L-shaped domain: active-region partition over "
          "3 nodes\n(notch in the upper-right; inactive SDs shown as "
          "their nominal owner 0):")
    print(render_ownership(sd_grid, parts))

    u0 = grid.field_from_function(
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    solver = DistributedSolver(model, grid, sd_grid, parts, num_nodes=3,
                               work_factors=mask.work_factors(),
                               domain_mask=mask)
    res = solver.run(u0, 10)
    dp = mask.dp_mask()
    print(f"\nafter 10 steps: max |u| in L = {np.abs(res.u[dp]).max():.4f}, "
          f"max |u| in notch = {np.abs(res.u[~dp]).max():.1f} "
          f"(pinned to zero)")
    print(f"virtual makespan on 3 nodes: {res.makespan * 1e3:.3f} ms")


def main() -> None:
    nonlocal_to_local()
    l_shape_solve()


if __name__ == "__main__":
    main()
