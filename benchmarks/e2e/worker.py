"""One repetition of one workload, as one ``repro run --json`` would do it.

Run as a script it prints its result as one JSON line; ``run.py``
starts it in a fresh process per repetition.  :func:`run_rep` is the
same code for callers that want it in-process (the smoke test).

Phases, each timed with ``perf_counter``:

* **setup** — the cold ``import repro``, the registry ``build`` of the
  spec, and ``cached_operator`` for every distinct discretization;
* **wall** — ``run_scenario(spec)`` plus ``write_records`` of the
  record, the ``--json`` path (and, on the service workload,
  ``summarize_record``, as ``repro serve`` does).

The *window* is setup minus the import plus wall: what a traced run
records spans over.  Correctness checks run after the window and read
the record back from the file that was written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Optional

from tracer import Tracer, chrome_events, layer_table
from workloads import build_spec, discretizations, work_units

#: record fields left out of the digest: float sums over real
#: temperatures, checked against a tolerance instead
_UNHASHED = ("errors", "total_error")


def record_digest(record: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON of a record, minus the errors."""
    canon = {k: v for k, v in record.items() if k not in _UNHASHED}
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_invariants(record: Dict[str, Any],
                     summary: Optional[Dict[str, Any]]) -> List[str]:
    """Conservation laws every record must satisfy; returns violations."""
    bad = []
    moved = (record["ghost_bytes"]
             + sum(e["migration_bytes"] for e in record["balance_events"])
             + sum(e["recovery_bytes"] for e in record["recovery_events"]))
    if sum(record["bytes_by_class"].values()) != moved:
        bad.append(f"bytes_by_class sums to "
                   f"{sum(record['bytes_by_class'].values())}, "
                   f"ghost+migration+recovery is {moved}")
    cluster = record["spec"]["cluster"]
    cores = [cluster["cores_per_node"]] * cluster["num_nodes"]
    for event in (cluster.get("faults") or {}).get("events", []):
        if event["kind"] == "join":
            cores.append(event["cores"])
    makespan = record["makespan"]
    for node, busy in enumerate(record["busy_total"]):
        limit = (cores[node] if node < len(cores)
                 else cluster["cores_per_node"]) * makespan
        if busy > limit * (1 + 1e-9):
            bad.append(f"node {node} busy {busy} > {limit} "
                       f"(cores x makespan)")
    if summary is not None:
        kinds = {"arrival": 0, "shed": 0, "start": 0, "finish": 0}
        for e in record["service_events"]:
            kinds[e["kind"]] += 1
        counted = {"offered": kinds["arrival"], "shed": kinds["shed"],
                   "started": kinds["start"], "completed": kinds["finish"]}
        for key, value in counted.items():
            if summary[key] != value:
                bad.append(f"summary {key} {summary[key]} != {value} "
                           f"events in the record")
        if summary["offered"] != summary["shed"] + summary["admitted"]:
            bad.append("offered != shed + admitted")
        if not (summary["completed"] <= summary["started"]
                <= summary["admitted"]):
            bad.append("completed <= started <= admitted does not hold")
    return bad


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rep(workload: str, seed: int, record_path: str,
            shrink: bool = False, trace: bool = False,
            trace_out: Optional[str] = None, pid: int = 1) -> Dict[str, Any]:
    """Run one repetition; return its timings, checks and trace tables."""
    t0 = perf_counter()
    import repro  # noqa: F401  (the cold import is part of setup)
    import repro.experiments as ex
    t_import = perf_counter() - t0

    tracer = Tracer().install() if trace else None
    try:
        w0 = perf_counter()
        spec = build_spec(workload, seed, shrink)
        for key in discretizations(spec):
            ex.cached_operator(*key)
        w1 = perf_counter()
        rec = ex.run_scenario(spec)
        ex.write_records(record_path, [rec])
        summary = None
        if spec.solver == "service":
            from repro.service import summarize_record
            summary = summarize_record(rec)
        w2 = perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak = _peak_rss_mb()

    record_bytes = os.path.getsize(record_path)
    with open(record_path, "r", encoding="utf-8") as fh:
        record = json.load(fh)["records"][0]
    out: Dict[str, Any] = {
        "workload": workload, "seed": seed, "traced": trace,
        "setup_s": t_import + (w1 - w0),
        "wall_s": w2 - w1, "window_s": w2 - w0, "peak_rss_mb": peak,
        "work_units": work_units(
            spec, summary["offered"] if summary else 0),
        "digest": record_digest(record),
        "total_error": record["total_error"],
        "violations": check_invariants(record, summary),
    }
    if tracer is not None:
        out["trace"] = _trace_tables(tracer, record, summary, w2 - w0,
                                     record_bytes)
        if trace_out:
            with open(trace_out, "w", encoding="utf-8") as fh:
                json.dump(chrome_events(tracer.spans, w0, pid, workload), fh)
    return out


def _trace_tables(tracer, record: Dict[str, Any],
                  summary: Optional[Dict[str, Any]], window: float,
                  record_bytes: int) -> Dict[str, Any]:
    """Per-layer self times plus the counts each layer's work implies."""
    layers = layer_table(tracer.spans)
    calls = Counter(span[0] for span in tracer.spans)
    counts: Dict[str, float] = {}
    events = 0
    for sim in tracer.simulators.values():
        events += sim.events_processed
        for klass, (n, secs) in (sim.profile or {}).items():
            counts[f"amt.events.{klass}.count"] = (
                counts.get(f"amt.events.{klass}.count", 0) + n)
            counts[f"amt.events.{klass}.s"] = (
                counts.get(f"amt.events.{klass}.s", 0.0) + secs)
    counts["amt.events"] = events
    for route, nbytes in record["bytes_by_class"].items():
        counts[f"amt.bytes.{route}"] = nbytes
    counts["amt.tasks_requeued"] = calls["SimCluster.resubmit"]
    steps = record["num_steps"]
    counts["mesh.plan.compiles_per_step"] = (
        calls["Decomposition.ghost_messages"] / steps if steps else 0.0)
    balance = record["balance_events"]
    counts["core.sds_moved"] = sum(e["sds_moved"] for e in balance)
    counts["core.migration_bytes"] = sum(e["migration_bytes"]
                                         for e in balance)
    counts["core.moving_calls_ratio"] = (
        sum(1 for e in balance if e["sds_moved"] > 0) / len(balance)
        if balance else 0.0)
    kernel_s = layers["solver.kernel"]["self_s"]
    counts["solver.kernel.flops"] = tracer.kernel_flops
    counts["solver.kernel.bytes"] = tracer.kernel_bytes
    counts["solver.kernel.flops_per_byte"] = (
        tracer.kernel_flops / tracer.kernel_bytes
        if tracer.kernel_bytes else 0.0)
    counts["solver.kernel.gflops_per_s"] = (
        tracer.kernel_flops / kernel_s / 1e9 if kernel_s > 0 else 0.0)
    offered = summary["offered"] if summary else 0
    admitted = summary["admitted"] if summary else 0
    counts["service.offered"] = offered
    counts["service.admitted_ratio"] = admitted / offered if offered else 0.0
    counts["service.completed_ratio"] = (
        summary["completed"] / admitted if admitted else 0.0)
    counts["experiments.record_bytes"] = record_bytes
    return {"window_s": window, "layers": layers, "counts": counts}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--record", required=True,
                    help="where write_records puts the record")
    ap.add_argument("--shrink", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--pid", type=int, default=1)
    args = ap.parse_args(argv)
    result = run_rep(args.workload, args.seed, args.record,
                     shrink=args.shrink, trace=args.trace,
                     trace_out=args.trace_out, pid=args.pid)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
