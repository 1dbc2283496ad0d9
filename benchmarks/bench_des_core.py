"""DES fast-path throughput: per-event loop vs wave-batched fast path.

Two workloads, each run once per configuration in a fresh subprocess
(so ``ru_maxrss`` gives a true per-configuration peak):

* **core** — a cluster-level task/message stress (no solver): every
  node receives a run of small homogeneous tasks plus a spread of
  cross-node messages.  This isolates the simulator hot path the
  tentpole rebuilt — event queue, task completion, delivery — from
  decomposition and plan-building costs.  Throughput is *logical*
  events per second: the per-event-semantics count (one completion per
  task, one delivery per message) divided by the event-loop wall time,
  so wave batching is credited for retiring the same schedule with
  fewer physical events.
* **scale_extreme** — the registry's 2048x2048 / 4096-SD / 512-node
  schedule-only scenario end to end (``REPRO_BENCH_DES_*`` scale it
  down for CI smoke).

Configurations:

* ``per-event`` — ``SimCluster(wave_batching=False)`` (for the
  scenario, ``build_solver(spec).cluster.wave_batching = False``):
  every task completion and message delivery is its own event, the
  seed's event loop.
* ``fast`` — the default: deferred completions on.

Every configuration must produce the *identical* virtual clock on both
workloads — the determinism contract the fast path is built under —
and the committed record must show the fast path retiring logical
events at ``>= REPRO_BENCH_MIN_DES_SPEEDUP`` (default 5) times the
per-event configuration's rate on the core workload, with the end-to-end
scenario clearing ``REPRO_BENCH_MIN_EVENTS_PER_SEC``.

Emits JSON in the harness result schema; ``REPRO_BENCH_JSON=path``
writes it to a file (``BENCH_des_core.json`` at the repo root is the
committed record).
"""

import json
import os
import subprocess
import sys
import time
from functools import lru_cache

from repro.experiments import SCHEMA, write_json
from repro.reporting.tables import format_table

#: scenario scale (CI smoke shrinks these via the environment)
MESH = int(os.environ.get("REPRO_BENCH_DES_MESH", "2048"))
SD_AXIS = int(os.environ.get("REPRO_BENCH_DES_SD_AXIS", "64"))
NODES = int(os.environ.get("REPRO_BENCH_DES_NODES", "512"))
STEPS = int(os.environ.get("REPRO_BENCH_DES_STEPS", "3"))

#: core-workload shape: tasks dominate, as in the wave fast path's
#: target regime; messages keep the queue deep enough to exercise it
CORE_NODES = int(os.environ.get("REPRO_BENCH_DES_CORE_NODES", "256"))
CORE_TASKS = int(os.environ.get("REPRO_BENCH_DES_CORE_TASKS", "192"))
CORE_MSGS = int(os.environ.get("REPRO_BENCH_DES_CORE_MSGS", "4000"))
CORE_REPS = int(os.environ.get("REPRO_BENCH_DES_CORE_REPS", "3"))

#: fast path vs per-event loop on the core workload (the 5x bar)
_MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_DES_SPEEDUP", "5.0"))
#: absolute end-to-end floor for the fast configuration (logical ev/s)
_MIN_EVENTS = float(os.environ.get("REPRO_BENCH_MIN_EVENTS_PER_SEC", "20000"))

CONFIGS = (
    {"name": "per-event", "batching": False},
    {"name": "fast", "batching": True},
)


def _run_core(batching):
    """The core stress in-process; returns (logical, physical, wall)."""
    from repro.amt.cluster import SimCluster

    best_wall = None
    physical = 0
    logical = CORE_MSGS + CORE_NODES * CORE_TASKS
    for _ in range(CORE_REPS):
        cluster = SimCluster(CORE_NODES, cores_per_node=1,
                             wave_batching=batching)
        # deterministic pseudo-spread of sources, targets, and sizes
        cluster.send_many([
            ((i * 7919 + 13) % CORE_NODES, (i * 104729 + 7) % CORE_NODES,
             4096 + (i % 64) * 64) for i in range(CORE_MSGS)])
        for n in range(CORE_NODES):
            for k in range(CORE_TASKS):
                cluster.submit(n, work=1e-4 * (1 + (k % 7)), label="t")
        t0 = time.perf_counter()
        cluster.run()
        wall = time.perf_counter() - t0
        physical = cluster.sim.events_processed
        makespan = cluster.now
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return {"logical_events": logical, "physical_events": physical,
            "wall_seconds": best_wall, "makespan": makespan,
            "events_per_second": logical / best_wall}


def _run_scenario(batching):
    """scale_extreme end to end; returns events, wall, makespan."""
    from repro.experiments import build
    from repro.experiments.runner import build_solver

    spec = build("scale_extreme", mesh=MESH, sd_axis=SD_AXIS, nodes=NODES,
                 steps=STEPS)
    solver = build_solver(spec)
    solver.cluster.wave_batching = batching
    t0 = time.perf_counter()
    result = solver.run(None, spec.num_steps)
    wall = time.perf_counter() - t0
    return {"physical_events": solver.cluster.sim.events_processed,
            "wall_seconds": wall, "makespan": result.makespan}


def _worker(config_json: str) -> None:
    """Subprocess entry: run both workloads under one configuration."""
    from harness import peak_rss_bytes

    cfg = json.loads(config_json)
    row = {
        "config": cfg["name"],
        "wave_batching": cfg["batching"],
        "core": _run_core(cfg["batching"]),
        "scenario": _run_scenario(cfg["batching"]),
        "peak_rss_bytes": peak_rss_bytes(),
    }
    print("RESULT " + json.dumps(row, sort_keys=True))


def _run_config(cfg):
    env = dict(os.environ)
    env.pop("REPRO_DES_PROFILE", None)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker",
         json.dumps(cfg)],
        env=env, capture_output=True, text=True,
        cwd=os.path.dirname(os.path.abspath(__file__)))
    if proc.returncode != 0:
        raise RuntimeError(
            f"DES bench worker {cfg['name']!r} failed:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise RuntimeError(
        f"DES bench worker {cfg['name']!r} produced no result:\n"
        f"{proc.stdout}")


@lru_cache(maxsize=1)
def config_rows():
    return [_run_config(cfg) for cfg in CONFIGS]


def test_des_core(benchmark):
    rows = config_rows()
    by_name = {r["config"]: r for r in rows}
    slow, fast = by_name["per-event"], by_name["fast"]

    # determinism first: every configuration produced the identical
    # virtual schedule on both workloads
    assert len({r["core"]["makespan"] for r in rows}) == 1
    assert len({r["scenario"]["makespan"] for r in rows}) == 1

    # logical = seed-equivalent event count: the per-event configuration
    # retires every event individually, so its physical count is the
    # canonical denominator for the end-to-end throughput comparison
    scenario_logical = slow["scenario"]["physical_events"]
    for r in rows:
        r["scenario"]["logical_events"] = scenario_logical
        r["scenario"]["events_per_second"] = (
            scenario_logical / r["scenario"]["wall_seconds"])

    core_speedup = (fast["core"]["events_per_second"]
                    / slow["core"]["events_per_second"])
    scenario_speedup = (fast["scenario"]["events_per_second"]
                        / slow["scenario"]["events_per_second"])

    print("\n" + format_table(
        ["config", "core ev/s", "core phys", "scenario ev/s",
         "scenario wall (s)", "peak RSS (MB)"],
        [[r["config"], f"{r['core']['events_per_second']:,.0f}",
          r["core"]["physical_events"],
          f"{r['scenario']['events_per_second']:,.0f}",
          f"{r['scenario']['wall_seconds']:.2f}",
          f"{r['peak_rss_bytes'] / 1e6:.0f}"] for r in rows],
        title=f"DES core throughput — core {CORE_NODES}n x {CORE_TASKS}t "
              f"+ {CORE_MSGS}m, scenario {MESH}^2 / {SD_AXIS}^2 SDs / "
              f"{NODES} nodes / {STEPS} steps"))
    print(f"core speedup (fast / per-event): {core_speedup:.2f}x; "
          f"end-to-end: {scenario_speedup:.2f}x")

    assert core_speedup >= _MIN_SPEEDUP, (
        f"fast path retired logical events only {core_speedup:.2f}x "
        f"faster than the per-event loop (floor {_MIN_SPEEDUP:g}x)")
    assert fast["scenario"]["events_per_second"] >= _MIN_EVENTS, (
        f"end-to-end {fast['scenario']['events_per_second']:,.0f} ev/s "
        f"below the {_MIN_EVENTS:,.0f} floor")
    # wave batching must actually shrink the physical event count
    assert (fast["core"]["physical_events"]
            < slow["core"]["physical_events"])

    payload = {
        "benchmark": "des_core",
        "scenario": "scale_extreme",
        "mesh": [MESH, MESH],
        "sd_axis": SD_AXIS,
        "nodes": NODES,
        "steps": STEPS,
        "core_workload": {"nodes": CORE_NODES, "tasks_per_node": CORE_TASKS,
                          "messages": CORE_MSGS, "reps": CORE_REPS},
        "min_speedup": _MIN_SPEEDUP,
        "min_events_per_second": _MIN_EVENTS,
        "core_speedup": core_speedup,
        "scenario_speedup": scenario_speedup,
        "configs": rows,
    }
    out = os.environ.get("REPRO_BENCH_JSON")
    if out:
        write_json(out, payload)
    else:
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))

    benchmark(lambda: rows)  # rows cached; keep pytest-benchmark happy


if __name__ == "__main__" and len(sys.argv) >= 3 and sys.argv[1] == "--worker":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    _worker(sys.argv[2])
