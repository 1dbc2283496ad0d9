"""End-to-end benchmark of ``repro``: four workloads, one process per rep.

Usage, from the root of the repository::

    python benchmarks/e2e/run.py [--seed S] [--out results.json]
                                 [--trace-out spans.json]
    python benchmarks/e2e/run.py --workload NAME --seed S --seconds T
                                 --trace 0|1

Every repetition is a fresh ``worker.py`` process.  Per workload: one
untimed warm-up process (the shrunk workload, which imports and runs
every module the timed reps use), then the timed reps, interleaved
round-robin across workloads so machine drift hits every workload
alike, then one traced process.  Only one worker runs at a time.  A
workload whose warm-up or a rep raises or times out runs nothing more:
the failure counts as a failed rep and the result is still reported.

Without ``--seconds`` each workload gets ``REPS`` timed reps; with it,
reps continue until ``--seconds`` have passed (at least ``MIN_REPS``).
The end-to-end metrics are medians over the reps that passed every
check.  With a single ``--workload``, the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).

Correctness: every rep checks conservation invariants on its record;
at seed 0 (and at every seed for a workload that takes none) the
record digest must match ``reference.json``; at other seeds all reps
must agree with each other; ``numerics`` checks ``total_error``
against its reference at rtol 1e-9, which no seed changes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from tracer import LAYERS, layer_self_from_events  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: each run makes its own directory here for the reps' records and
#: spans, and removes it when it ends.  It lies inside the tree the
#: benchmark runs from, which is the only place the benchmark writes.
BUILD = ROOT / ".bench_build"
REFERENCE = HERE / "reference.json"
#: a rep that runs longer than this counts as failed
REP_TIMEOUT_S = 120
#: timed reps per workload when reps are not time-budgeted
REPS = 9
#: fewest timed reps per workload when reps are time-budgeted
MIN_REPS = 3
#: relative tolerance of the numerics ``total_error`` check
ERROR_RTOL = 1e-9

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s",
                    "work_per_s": "units/s", "peak_rss_mb": "MB"}
#: DES event classes and route classes reported even when a workload
#: has none, so every workload emits the same per-layer names
EVENT_CLASSES = ("delivery", "completion", "wave", "arrival")
ROUTE_CLASSES = ("remote",)
COUNT_UNITS = {
    "amt.events": "count", "amt.tasks_requeued": "count",
    "mesh.plan.compiles_per_step": "count/step",
    "core.sds_moved": "count", "core.migration_bytes": "B",
    "core.moving_calls_ratio": "ratio",
    "solver.kernel.flops": "flop", "solver.kernel.bytes": "B",
    "solver.kernel.flops_per_byte": "flop/B",
    "solver.kernel.gflops_per_s": "GFLOP/s",
    "service.offered": "count", "service.admitted_ratio": "ratio",
    "service.completed_ratio": "ratio",
    "experiments.record_bytes": "B",
}


def worker_env(environ: Dict[str, str], trace: bool) -> Dict[str, str]:
    """The environment of a worker: the parent's minus every ``REPRO_*``
    variable, with hash seed and BLAS/OpenMP threads pinned; a traced
    worker adds only the DES event profile."""
    env = {k: v for k, v in environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    if trace:
        env["REPRO_DES_PROFILE"] = "1"
    return env


def spawn(workload: str, seed: int, record: Path, shrink: bool = False,
          trace: bool = False, trace_out: Optional[Path] = None,
          pid: int = 1) -> Dict[str, Any]:
    """Run one rep in a fresh worker process; ``{"error": ...}`` if it
    raised, timed out or printed no result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--record", str(record), "--pid", str(pid)]
    if shrink:
        cmd.append("--shrink")
    if trace:
        cmd.append("--trace")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(os.environ, trace),
                              capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {REP_TIMEOUT_S} s"}
    finally:
        record.unlink(missing_ok=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def judge(reps: List[Dict[str, Any]], workload: str, seed: int,
          reference: Dict[str, Any]) -> None:
    """Set ``rep["failure"]`` (a reason, or ``None``) on every rep."""
    ref = reference["workloads"][workload]
    pinned = seed == reference["seed"] or not WORKLOADS[workload].seeded
    ran = [r for r in reps if "error" not in r]
    if pinned:
        expected = ref["digest"]
    else:
        # no committed digest for this seed: the reps must agree
        common = Counter(r["digest"] for r in ran).most_common(1)
        expected = common[0][0] if common else None
    for rep in reps:
        rep["failure"] = None
        if "error" in rep:
            rep["failure"] = rep["error"]
        elif rep["violations"]:
            rep["failure"] = "; ".join(rep["violations"])
        elif rep["digest"] != expected:
            rep["failure"] = (f"record digest {rep['digest'][:12]} != "
                              f"{'reference' if pinned else 'other reps'} "
                              f"{str(expected)[:12]}")
        elif ref["total_error"] is not None and not math.isclose(
                rep["total_error"], ref["total_error"], rel_tol=ERROR_RTOL,
                abs_tol=0.0):
            rep["failure"] = (f"total_error {rep['total_error']!r} != "
                              f"reference {ref['total_error']!r}")


def stats(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics over the untraced reps that passed, and the
    share of all reps (traced included) that failed."""
    ok = [r for r in reps if r["failure"] is None and not r["traced"]]
    out: Dict[str, Dict[str, Any]] = {}
    if ok:
        per_rep = {
            "wall_s": [r["wall_s"] for r in ok],
            "setup_s": [r["setup_s"] for r in ok],
            "work_per_s": [r["work_units"] / r["wall_s"] for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        }
        for name, values in per_rep.items():
            out[name] = dict(stats(values), unit=END_TO_END_UNITS[name])
    failed = sum(r["failure"] is not None for r in reps)
    out["failed_frac"] = dict(stats([failed / len(reps)]), unit="ratio")
    return out


def per_layer(traced: Dict[str, Any],
              untraced_window_s: Optional[float]) -> Dict[str, Dict]:
    """Per-layer metrics of the traced rep: calls, self time and share
    of every layer, the counts the layers' work implies, and how much
    of the window no layer covers."""
    trace = traced["trace"]
    window = trace["window_s"]
    out: Dict[str, Dict[str, Any]] = {}
    attributed = 0.0
    for layer, row in trace["layers"].items():
        attributed += row["self_s"]
        out[f"{layer}.calls"] = {"value": row["calls"], "unit": "count"}
        out[f"{layer}.self_s"] = {"value": row["self_s"], "unit": "s"}
        out[f"{layer}.share"] = {"value": row["self_s"] / window,
                                 "unit": "ratio"}
    counts = dict(trace["counts"])
    for klass in EVENT_CLASSES:
        counts.setdefault(f"amt.events.{klass}.count", 0)
    for route in ROUTE_CLASSES:
        counts.setdefault(f"amt.bytes.{route}", 0)
    for name, value in sorted(counts.items()):
        if name in COUNT_UNITS:
            unit = COUNT_UNITS[name]
        elif name.startswith("amt.bytes."):
            unit = "B"
        else:
            unit = "s" if name.endswith(".s") else "count"
        out[name] = {"value": value, "unit": unit}
    out["trace.wall_s"] = {"value": window, "unit": "s"}
    out["trace.unattributed_s"] = {"value": window - attributed, "unit": "s"}
    if untraced_window_s:
        out["trace.overhead_frac"] = {
            "value": window / untraced_window_s - 1.0, "unit": "ratio"}
    return out


def run(workloads: List[str], seed: int, seconds: Optional[float],
        trace: bool, trace_out: Optional[Path]) -> Dict[str, Dict[str, Any]]:
    """Warm up, run the timed reps round-robin, then the traced reps."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="e2e-", dir=BUILD))
    record = workdir / "record.json"
    try:
        timed: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
        # workloads still running reps: one that raised or timed out
        # would only repeat the failure, a timeout at a time
        live = []
        for w in workloads:
            warm = spawn(w, seed, record, shrink=True)
            if "error" in warm:
                print(f"# {w} warm-up: {warm['error']}", file=sys.stderr)
                timed[w].append(warm)
            else:
                live.append(w)
        start = perf_counter()
        i = 0
        while live and (i < REPS if seconds is None else
                        i < MIN_REPS or perf_counter() - start < seconds):
            for w in list(live):
                rep = spawn(w, seed, record)
                timed[w].append(rep)
                print(f"# {w} rep {i}: "
                      + (rep["error"] if "error" in rep else
                         f"wall {rep['wall_s']:.4f} s, "
                         f"setup {rep['setup_s']:.4f} s"), file=sys.stderr)
                if "error" in rep:
                    live.remove(w)
            i += 1
        results = {}
        for pid, w in enumerate(workloads, start=1):
            spans = workdir / f"{w}-spans.json" if trace_out else None
            traced = (spawn(w, seed, record, trace=True, trace_out=spans,
                            pid=pid) if trace and w in live else None)
            judged = timed[w] + ([traced] if traced else [])
            judge(judged, w, seed, reference)
            result = {
                "attempted": len(judged),
                "failed": sum(r["failure"] is not None for r in judged),
                "failures": sorted({r["failure"] for r in judged
                                    if r["failure"] is not None}),
                "end_to_end": end_to_end(judged),
            }
            ok = [r["window_s"] for r in timed[w] if r["failure"] is None]
            if traced and traced["failure"] is None:
                result["per_layer"] = per_layer(
                    traced, statistics.median(ok) if ok else None)
                if spans is not None:
                    result["spans"] = json.loads(
                        spans.read_text(encoding="utf-8"))
            results[w] = result
        return results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            BUILD.rmdir()  # unless another run still uses it


def export_trace(results: Dict[str, Dict[str, Any]], path: Path) -> None:
    """Write every traced workload's spans as one Chrome trace file and
    check that the spans sum to the printed layer table."""
    events: List[Dict[str, Any]] = []
    for result in results.values():
        events += result.pop("spans", [])
    recomputed = layer_self_from_events(events)
    for pid, (w, result) in enumerate(results.items(), start=1):
        for layer in LAYERS:
            table = result.get("per_layer", {}).get(f"{layer}.self_s")
            if table is None:
                continue
            spans = recomputed.get((pid, layer), 0.0)
            if not math.isclose(spans, table["value"], rel_tol=1e-6,
                                abs_tol=1e-9):
                raise RuntimeError(f"{w} {layer}: spans sum to {spans} s, "
                                   f"layer table says {table['value']} s")
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}), encoding="utf-8")


def print_report(results: Dict[str, Dict[str, Any]]) -> None:
    for w, result in results.items():
        print(f"== {w}: {result['attempted']} reps attempted, "
              f"{result['failed']} failed")
        for reason in result["failures"]:
            print(f"   failure: {reason}")
        print(f"   {'metric':<14}{'unit':<9}{'median':>13}{'q1':>13}"
              f"{'q3':>13}{'n':>4}")
        for name, m in result["end_to_end"].items():
            print(f"   {name:<14}{m['unit']:<9}{m['median']:>13.6g}"
                  f"{m['q1']:>13.6g}{m['q3']:>13.6g}{m['n']:>4}")
        layers = result.get("per_layer")
        if not layers:
            continue
        print(f"   {'layer':<24}{'calls':>9}{'self_s':>11}{'share':>8}")
        for layer in LAYERS:
            print(f"   {layer:<24}{layers[layer + '.calls']['value']:>9}"
                  f"{layers[layer + '.self_s']['value']:>11.4f}"
                  f"{layers[layer + '.share']['value']:>8.1%}")
        for name, m in layers.items():
            if name.split(".")[-1] not in ("calls", "self_s", "share"):
                print(f"   {name:<34} {m['value']:>14.6g} {m['unit']}")


def contract_line(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The one-line JSON result for a single workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    source = result.get("per_layer", {}) if trace else {
        k: {"value": v["median"], "unit": v["unit"]}
        for k, v in result["end_to_end"].items()}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {n: source[n] for n in names if n in source}}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark of repro (see README.md).")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"time-budget the reps instead of running {REPS}")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1,
                    help="run the traced process (default 1)")
    ap.add_argument("--out", type=Path, help="write all results as JSON")
    ap.add_argument("--trace-out", type=Path,
                    help="write traced spans as Chrome trace-event JSON")
    args = ap.parse_args(argv)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        results = run(workloads, args.seed, args.seconds, bool(args.trace),
                      args.trace_out)
        if args.trace_out:
            export_trace(results, args.trace_out)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(results)
    if args.out:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "workloads": results}, indent=1),
            encoding="utf-8")
    if args.workload:
        print(json.dumps(contract_line(results[args.workload],
                                       bool(args.trace))))
        return 0
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
