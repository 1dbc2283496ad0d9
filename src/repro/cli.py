"""Command-line interface: ``python -m repro <command>``.

Commands map to the library's main entry points so the paper's
experiments can be rerun without writing a script:

* ``validate``  — the Fig. 8 convergence sweep (error vs h);
* ``solve``     — one manufactured-problem solve with error report;
* ``scale``     — a strong-scaling sweep on the simulated cluster;
* ``balance``   — the Fig. 14 iterated balancing demo;
* ``partition`` — partition an SD grid and print quality metrics;
* ``run``       — any registered scenario by name (``run --list``);
* ``serve``     — a multi-tenant solve-service scenario (open-loop
  arrival streams, admission control, latency/goodput telemetry).

Every command constructs its runs through the declarative experiment
engine (:mod:`repro.experiments`): a named registry scenario is built,
optionally overridden from the flags, executed by the runner (sweeps go
through the process-parallel ``run_sweep``), and the structured
:class:`RunRecord` results can be written with ``--json <path>``.
Text output is plain tables via :mod:`repro.reporting`.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (separate for testability)."""
    from .core.strategies import strategy_names
    from .costmodel import cost_model_names
    from .solver.backends import backend_names
    p = argparse.ArgumentParser(
        prog="repro",
        description="Nonlocal-model load balancing reproduction (IPPS 2021)")
    sub = p.add_subparsers(dest="command", required=True)

    def add_json(sp):
        sp.add_argument("--json", metavar="PATH", default=None,
                        help="write structured RunRecord results to PATH")

    def add_backend(sp):
        sp.add_argument("--backend", choices=["auto"] + backend_names(),
                        default=None,
                        help="kernel backend for the operator applies "
                             "(default: the scenario's choice, normally "
                             "'auto' = radius heuristic)")

    def add_balancer(sp):
        sp.add_argument("--balancer", choices=["auto"] + strategy_names(),
                        default=None,
                        help="load-balancing strategy (default: the "
                             "scenario's choice, normally 'auto' = the "
                             "paper's tree algorithm)")

    def add_cost_model(sp):
        sp.add_argument("--cost-model", choices=["auto"] + cost_model_names(),
                        default=None, dest="cost_model",
                        help="task-cost model pricing simulated task "
                             "times (default: the scenario's choice, "
                             "normally 'auto' = the seed's flat "
                             "arithmetic; 'hierarchy' makes block shape "
                             "and backend matter)")

    def add_topology(sp):
        from .amt.topology import topology_names
        sp.add_argument("--topology", choices=topology_names(),
                        default=None,
                        help="network topology for the simulated cluster "
                             "(default: the scenario's choice, normally "
                             "the flat network; 'switched' and "
                             "'hierarchical' use default rack parameters "
                             "— pin TopologySpec in a scenario for more)")

    v = sub.add_parser("validate", help="Fig. 8 convergence sweep")
    v.add_argument("--max-exponent", type=int, default=6,
                   help="finest mesh is 2^N, N >= 3 (default 6)")
    v.add_argument("--steps", type=int, default=10)
    v.add_argument("--jobs", type=int, default=1,
                   help="process-parallel sweep workers (default serial)")
    add_json(v)

    s = sub.add_parser("solve", help="one manufactured solve")
    s.add_argument("--nx", type=int, default=64)
    s.add_argument("--eps-factor", type=float, default=8.0)
    s.add_argument("--steps", type=int, default=20)
    s.add_argument("--source", choices=("continuum", "discrete"),
                   default="continuum")
    add_backend(s)
    add_json(s)

    c = sub.add_parser("scale", help="strong scaling on the simulated cluster")
    c.add_argument("--mesh", type=int, default=400)
    c.add_argument("--sds", type=int, default=8, help="SDs per axis")
    c.add_argument("--max-nodes", type=int, default=8)
    c.add_argument("--steps", type=int, default=20)
    c.add_argument("--seed", type=int, default=0,
                   help="partitioner seed")
    c.add_argument("--jobs", type=int, default=1,
                   help="process-parallel sweep workers (default serial)")
    add_backend(c)
    add_balancer(c)
    add_topology(c)
    add_cost_model(c)
    add_json(c)

    b = sub.add_parser("balance", help="Fig. 14 iterated balancing demo")
    b.add_argument("--sds", type=int, default=5, help="SDs per axis")
    b.add_argument("--nodes", type=int, default=4)
    b.add_argument("--iterations", type=int, default=3)
    add_balancer(b)
    add_json(b)

    g = sub.add_parser("partition", help="partition an SD grid")
    g.add_argument("--sds", type=int, default=16, help="SDs per axis")
    g.add_argument("--nodes", type=int, default=4)
    g.add_argument("--method", choices=("multilevel", "blocks", "strips",
                                        "rcb", "spectral"),
                   default="multilevel")
    g.add_argument("--seed", type=int, default=0,
                   help="multilevel partitioner seed")
    add_json(g)

    r = sub.add_parser("run", help="run a registered scenario by name")
    r.add_argument("--scenario", metavar="NAME", default=None,
                   help="registry name (see --list)")
    r.add_argument("--list", action="store_true", dest="list_scenarios",
                   help="list registered scenario names and exit")
    r.add_argument("--steps", type=int, default=None,
                   help="override the scenario's timestep count")
    r.add_argument("--seed", type=int, default=None,
                   help="override the scenario's seed (where supported)")
    r.add_argument("--faults", metavar="SPEC", default=None,
                   help="overlay a churn schedule on the scenario's "
                        "cluster: inline JSON ('{\"events\": [...]}') or "
                        "a path to a JSON file in FaultSpec form "
                        "(events with kind fail/join/straggle at virtual "
                        "times, plus recovery_penalty)")
    add_backend(r)
    add_balancer(r)
    add_topology(r)
    add_cost_model(r)
    add_json(r)

    e = sub.add_parser("serve",
                       help="multi-tenant solve service on the "
                            "simulated cluster")
    e.add_argument("--scenario", metavar="NAME", default="service_poisson",
                   help="a service_* registry scenario "
                        "(default service_poisson; see --list)")
    e.add_argument("--list", action="store_true", dest="list_scenarios",
                   help="list service scenario names and exit")
    e.add_argument("--rate", type=float, default=None,
                   help="override the aggregate offered load (jobs per "
                        "virtual second)")
    e.add_argument("--horizon", type=float, default=None,
                   help="override the service window (virtual seconds)")
    e.add_argument("--seed", type=int, default=None,
                   help="override the arrival-trace seed")
    e.add_argument("--nodes", type=int, default=None,
                   help="override the cluster size")
    e.add_argument("--autoscale", action="store_true",
                   help="close the loop on fleet sizing: attach the "
                        "default telemetry-driven autoscale policy "
                        "(target-utilization with hysteresis) to a "
                        "scenario that does not already carry one, and "
                        "print the scale-events table; scenarios like "
                        "flash_crowd autoscale by default")
    add_cost_model(e)
    e.add_argument("--profile", action="store_true",
                   help="enable DES profiling (REPRO_DES_PROFILE) and "
                        "print the per-event-class timing table after "
                        "the summary")
    add_json(e)
    return p


def _parse_faults(arg: str):
    """``--faults``: inline JSON if it looks like an object, else a path."""
    import json
    from .experiments import FaultSpec
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SystemExit(f"error: cannot read faults file {arg}: {exc}")
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise SystemExit(f"error: --faults is not valid JSON: {exc}")
    try:
        return FaultSpec.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: bad fault schedule: {exc}")


class _UsageError(Exception):
    """A flag value the command cannot run with; :func:`main` reports
    it, exit 2."""


def _spec(cmd: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a spec built from flag values: a value
    it rejects is reported as ``<cmd>: <message>``, not a traceback."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(f"{cmd}: {exc}") from exc


def _apply_overrides(spec, args):
    """The spec with the CLI's --backend/--balancer/--topology/
    --cost-model/--faults overrides."""
    if getattr(args, "backend", None):
        spec = spec.replace(kernel_backend=args.backend)
    if getattr(args, "cost_model", None):
        spec = spec.replace(cost_model=args.cost_model)
    if getattr(args, "balancer", None):
        spec = spec.with_balancer(args.balancer)
    if getattr(args, "topology", None):
        spec = spec.with_topology(args.topology)
    if getattr(args, "faults", None):
        from dataclasses import replace as _replace
        try:
            spec = spec.replace(cluster=_replace(
                spec.cluster, faults=_parse_faults(args.faults)))
        except ValueError as exc:  # membership validation
            raise SystemExit(f"error: bad fault schedule: {exc}")
    return spec


def _write_records(path: Optional[str], records) -> None:
    if path:
        from .experiments import write_records
        try:
            write_records(path, list(records))
        except OSError as exc:
            raise SystemExit(f"error: cannot write {path}: {exc}") from exc
        print(f"\nwrote {len(records)} record(s) to {path}")


def _cmd_validate(args) -> int:
    from .experiments import build, run_sweep
    from .reporting.tables import print_series
    exponents = list(range(2, args.max_exponent + 1))
    if len(exponents) < 2:
        # a monotone-decrease check over fewer than two meshes is vacuous
        raise _UsageError(f"validate: --max-exponent must be >= 3, "
                          f"got {args.max_exponent}")
    specs = [_spec("validate", build, "fig08_convergence", exponent=n,
                   steps=args.steps)
             for n in exponents]
    records = run_sweep(specs, serial=args.jobs <= 1, max_workers=args.jobs)
    hs = [1.0 / (2 ** n) for n in exponents]
    errors = [rec.total_error for rec in records]
    print_series("h", hs, {"total error e": errors},
                 title="Convergence validation (paper Fig. 8)")
    ok = all(b < a for a, b in zip(errors, errors[1:]))
    print(f"\nmonotone decrease: {'yes' if ok else 'NO'}")
    _write_records(args.json, records)
    return 0 if ok else 1


def _cmd_solve(args) -> int:
    from .experiments import build, run_scenario
    spec = _apply_overrides(
        _spec("solve", build, "solve_serial", nx=args.nx,
              eps_factor=args.eps_factor, steps=args.steps,
              source_mode=args.source), args)
    rec = run_scenario(spec)
    eps = args.eps_factor / args.nx
    print(f"mesh {args.nx}x{args.nx}, eps = {eps:.4g}, "
          f"dt = {rec.dt:.3e}, steps = {args.steps}")
    print(f"total error e = {rec.total_error:.4e}")
    print(f"final-step error e_N = {rec.errors[-1]:.4e}")
    _write_records(args.json, [rec])
    return 0


def _cmd_scale(args) -> int:
    from .experiments import build, run_sweep
    from .reporting.tables import print_series
    node_counts = [n for n in (1, 2, 4, 8, 12, 16, 24, 32)
                   if n <= min(args.max_nodes, args.sds * args.sds)]
    if not node_counts:
        raise _UsageError(f"scale: --max-nodes {args.max_nodes} with "
                          f"--sds {args.sds} leaves no node count to run")
    specs = [_apply_overrides(
                 _spec("scale", build, "scale_strong", mesh=args.mesh,
                       sd_axis=args.sds, nodes=n, steps=args.steps,
                       seed=args.seed), args)
             for n in node_counts]
    records = run_sweep(specs, serial=args.jobs <= 1, max_workers=args.jobs)
    times = [rec.makespan for rec in records]
    speedups = [times[0] / t for t in times]
    print_series("#nodes", node_counts,
                 {"speedup": speedups,
                  "optimal": [float(n) for n in node_counts]},
                 title=f"Strong scaling (mesh {args.mesh}^2, "
                       f"{args.sds}x{args.sds} SDs, eps=8h)")
    _write_records(args.json, records)
    return 0


def _cmd_balance(args) -> int:
    from .experiments import build, ownership_timeline, run_scenario
    from .reporting.ownership import render_ownership_sequence
    k = args.nodes
    spec = _apply_overrides(
        _spec("balance", build, "fig14_load_balance", sd_axis=args.sds,
              nodes=k, steps=args.iterations), args)
    rec = run_scenario(spec)
    sd_grid = spec.mesh.build_sd_grid()
    snapshots = ownership_timeline(spec, rec)
    print(render_ownership_sequence(
        sd_grid, snapshots,
        labels=[f"iter {i}" for i in range(len(snapshots))]))
    counts = np.bincount(rec.final_parts, minlength=k)
    print(f"\nfinal SDs per node: {[int(c) for c in counts]}")
    spread = int(counts.max() - counts.min())
    print(f"max-min spread: {spread}")
    _write_records(args.json, [rec])
    return 0 if spread <= 2 else 1


def _cmd_partition(args) -> int:
    from .experiments import PartitionSpec, write_json
    from .partition.graph import grid_dual_graph
    from .partition.metrics import evaluate_partition
    from .reporting.ownership import render_ownership
    from .mesh.subdomain import SubdomainGrid
    sds, k = args.sds, args.nodes
    method = "metis" if args.method == "multilevel" else args.method
    pspec = _spec("partition", PartitionSpec, method=method, seed=args.seed)
    parts = _spec("partition", pspec.build, sds, sds, k)
    graph = grid_dual_graph(sds, sds)
    rep = evaluate_partition(graph, parts, k)
    sd_grid = SubdomainGrid(4 * sds, 4 * sds, sds, sds)
    print(render_ownership(sd_grid, parts,
                           title=f"{args.method} partition, k={k}:"))
    print(f"\nedge cut: {rep.cut:g}   imbalance: {rep.imbalance:.3f}   "
          f"contiguous: {rep.contiguous}")
    if args.json:
        try:
            write_json(args.json, {
                "partition": pspec.to_dict(),
                "sds_per_axis": sds, "num_nodes": k,
                "parts": [int(p) for p in parts],
                "edge_cut": float(rep.cut),
                "imbalance": float(rep.imbalance),
                "contiguous": bool(rep.contiguous),
            })
        except OSError as exc:
            raise SystemExit(
                f"error: cannot write {args.json}: {exc}") from exc
        print(f"\nwrote partition report to {args.json}")
    return 0


def _run_balancer_ablation(args, overrides) -> int:
    """``run --scenario abl_balancers`` without a pinned ``--balancer``:
    one point per registered strategy, compared side by side."""
    from .experiments import balancer_sweep, run_sweep
    from .reporting.tables import print_table
    specs = [_apply_overrides(s, args)
             for s in _spec("run", balancer_sweep, **overrides)]
    records = run_sweep(specs, serial=True)
    rows = [[rec.spec["policy"]["balancer"], rec.makespan * 1e3,
             rec.sds_moved, rec.migration_bytes,
             rec.imbalance_history[-1] if rec.imbalance_history else 1.0]
            for rec in records]
    print_table(["strategy", "makespan (ms)", "SDs moved",
                 "migration bytes", "final imbalance"],
                rows, title="Balancer-strategy ablation (hetero_drift "
                            "workload, balancing every step)")
    _write_records(args.json, records)
    return 0


def _cmd_run(args) -> int:
    from .experiments import build, get_factory, run_scenario, scenario_names
    from .reporting.balance import (format_balance_events,
                                    format_bytes_by_class,
                                    format_recovery_events)
    if args.list_scenarios:
        for name in scenario_names():
            print(name)
        return 0
    if not args.scenario:
        print("run: provide --scenario NAME (or --list)", file=sys.stderr)
        return 2
    try:
        factory = get_factory(args.scenario)
    except KeyError as exc:
        print(f"run: {exc.args[0]}", file=sys.stderr)
        return 2
    accepted = inspect.signature(factory).parameters
    overrides = {}
    if args.steps is not None and "steps" in accepted:
        overrides["steps"] = args.steps
    if args.seed is not None and "seed" in accepted:
        overrides["seed"] = args.seed
    if args.scenario == "abl_balancers" and not args.balancer:
        return _run_balancer_ablation(args, overrides)
    spec = _apply_overrides(
        _spec("run", build, args.scenario, **overrides), args)
    rec = run_scenario(spec)
    print(f"scenario: {spec.name} ({rec.solver}, {rec.num_steps} steps)")
    if spec.kernel_backend != "auto":
        print(f"kernel backend: {spec.kernel_backend}")
    if rec.cost_model_resolved not in ("", "flat"):
        print(f"cost model: {rec.cost_model_resolved}")
    if rec.solver == "distributed" and spec.policy.balancer != "auto":
        print(f"balancer: {spec.policy.balancer}")
    if rec.solver == "distributed":
        print(f"virtual makespan: {rec.makespan * 1e3:.3f} ms")
        print(f"ghost bytes: {rec.ghost_bytes:,}   "
              f"migration bytes: {rec.migration_bytes:,}   "
              f"SDs moved: {rec.sds_moved}")
        if len(rec.bytes_by_class) > 1:
            # multiple route classes: a topology is differentiating
            # the traffic — show where the bytes went
            print(format_bytes_by_class(rec.bytes_by_class))
        if rec.imbalance_history:
            print(f"imbalance max/mean: first {rec.imbalance_history[0]:.3f}"
                  f" -> last {rec.imbalance_history[-1]:.3f}")
        if rec.recovery_events:
            print(f"recovery bytes: {rec.recovery_bytes:,}")
            print()
            print(format_recovery_events(rec.recovery_events))
        if rec.balance_events:
            print()
            print(format_balance_events(rec.balance_events))
    if rec.total_error is not None:
        print(f"total error e = {rec.total_error:.4e}")
    _write_records(args.json, [rec])
    return 0


def _cmd_serve(args) -> int:
    from .experiments import build, get_factory, scenario_names
    from .reporting.service import (format_scale_events,
                                    format_service_summary,
                                    format_tenant_table)
    from .service import (AutoscaleSpec, run_service_detailed,
                          summarize_record)
    if args.list_scenarios:
        for name in scenario_names():
            # service scenarios are the ones whose spec dispatches to
            # the service runner (covers flash_crowd etc., which do not
            # carry the service_ name prefix)
            if getattr(build(name), "solver", None) == "service":
                print(name)
        return 0
    try:
        factory = get_factory(args.scenario)
    except KeyError as exc:
        print(f"serve: {exc.args[0]}", file=sys.stderr)
        return 2
    accepted = inspect.signature(factory).parameters
    overrides = {}
    for flag in ("rate", "horizon", "seed", "nodes"):
        value = getattr(args, flag)
        if value is not None:
            if flag not in accepted:
                print(f"serve: scenario {args.scenario!r} does not "
                      f"accept --{flag}", file=sys.stderr)
                return 2
            overrides[flag] = value
    spec = _spec("serve", build, args.scenario, **overrides)
    if getattr(spec, "solver", None) != "service":
        print(f"serve: {args.scenario!r} is not a service scenario "
              f"(use 'repro run')", file=sys.stderr)
        return 2
    if getattr(args, "cost_model", None):
        spec = spec.replace(cost_model=args.cost_model)
    if args.autoscale and spec.autoscale is None:
        # bound by the current fleet on the low side so the policy can
        # shed idle capacity, twice the fleet on the high side
        spec = spec.replace(autoscale=AutoscaleSpec(
            min_nodes=max(1, spec.cluster.num_nodes // 2),
            max_nodes=2 * spec.cluster.num_nodes))
    prior = os.environ.get("REPRO_DES_PROFILE")
    if args.profile:
        # the env flag (not a Simulator kwarg) so any nested DES the
        # run builds inherits it, matching bench_des_core's contract
        os.environ["REPRO_DES_PROFILE"] = "1"
    try:
        rec, cluster = run_service_detailed(spec)
    finally:
        # restore, or every later Simulator() in this process profiles
        if prior is None:
            os.environ.pop("REPRO_DES_PROFILE", None)
        else:
            os.environ["REPRO_DES_PROFILE"] = prior
    summary = summarize_record(rec)
    if spec.autoscale is not None:
        fleet = (f"{spec.cluster.num_nodes} nodes, autoscaling in "
                 f"[{spec.autoscale.min_nodes}, "
                 f"{spec.autoscale.max_nodes}]")
    else:
        fleet = f"{spec.cluster.num_nodes} nodes"
    print(f"scenario: {spec.name} ({len(spec.tenants)} tenants, "
          f"{fleet}, {spec.arrival.process} arrivals)")
    print(format_service_summary(summary))
    print()
    print(format_tenant_table(summary))
    if spec.autoscale is not None:
        from .amt.autoscale import node_seconds
        used = node_seconds(rec.scale_events, spec.cluster.num_nodes,
                            spec.horizon)
        static = spec.cluster.num_nodes * spec.horizon
        print()
        print(f"provisioned node-seconds: {used:.4g} "
              f"(static {spec.cluster.num_nodes}-node fleet: "
              f"{static:.4g})")
        if rec.scale_events:
            print()
            print(format_scale_events(rec.scale_events))
    if args.profile:
        print()
        print(f"DES events processed: {cluster.sim.events_processed}")
        print(cluster.sim.profile_report())
    _write_records(args.json, [rec])
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "solve": _cmd_solve,
        "scale": _cmd_scale,
        "balance": _cmd_balance,
        "partition": _cmd_partition,
        "run": _cmd_run,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
