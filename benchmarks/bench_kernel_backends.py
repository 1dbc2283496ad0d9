"""Kernel-backend apply-throughput benchmark (DESIGN.md, *Kernel backends*).

Measures the per-backend cost of the hot operation behind every
scenario: the nonlocal operator apply ``L(u) = c V (W ⊛ u - S u)``, at
the paper's horizon (``eps = 8h`` → 17x17 masks) on the full grid and
on a ghost-padded SD block (the distributed/async solvers' path).

Acceptance criterion (ISSUE 2): at ``eps = 8h``, ``nx = ny = 256`` the
FFT or sparse backend must beat the direct backend by >= 2x on apply
throughput.  Measured on the development container the FFT backend's
precomputed mask transform wins by 3x or more; the sparse backend is
slower than direct on the full grid (its CSR matvecs, one per 64x64
output tile, stream 19M non-zeros) and exists for explicit-matrix use
cases.

One-time setup (stencil assembly + per-shape state: mask FFT / CSR
matrix) is reported separately — a time-stepper amortizes it over the
whole run.

Emits JSON in the harness result schema; ``REPRO_BENCH_JSON=path``
writes it to a file (``BENCH_kernel_backends.json`` at the repo root is
the committed record).
"""

import json
import os
import time

import numpy as np

from repro.experiments import SCHEMA, write_json
from repro.mesh.grid import UniformGrid
from repro.solver.backends import backend_names
from repro.solver.kernel import NonlocalOperator
from repro.solver.model import NonlocalHeatModel

from harness import peak_rss_bytes

#: the acceptance configuration: the paper's horizon on a 256^2 mesh
NX = 256
EPS_FACTOR = 8.0
#: SD block size of the paper's scaling figures (400^2 over 8x8 SDs)
BLOCK = 50

_MIN_SECONDS = 0.4
_MAX_REPS = 60
#: acceptance floor for the best non-direct speedup; shared/noisy CI
#: runners relax it via REPRO_BENCH_MIN_SPEEDUP (the committed
#: BENCH_kernel_backends.json records the full-strength 2x run)
_MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))


def _time_apply(fn, arg):
    """``(seconds_per_apply, reps)`` — warm, then repeat until stable."""
    fn(arg)
    fn(arg)  # warm: builds per-shape state (FFT plan / CSR matrix)
    reps = 0
    t0 = time.perf_counter()
    while True:
        fn(arg)
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= _MIN_SECONDS or reps >= _MAX_REPS:
            return elapsed / reps, reps


def measure(backend: str):
    """Throughput rows for one backend at the acceptance configuration."""
    grid = UniformGrid(NX, NX)
    model = NonlocalHeatModel(epsilon=EPS_FACTOR * grid.h)
    t0 = time.perf_counter()
    op = NonlocalOperator(model, grid, backend=backend)
    R = op.radius
    rng = np.random.default_rng(0)
    u = rng.standard_normal(grid.shape)
    padded = rng.standard_normal((BLOCK + 2 * R, BLOCK + 2 * R))
    # setup includes the first full+block applies: per-shape state
    op.apply(u)
    op.apply_block(padded)
    setup_s = time.perf_counter() - t0

    full_s, full_reps = _time_apply(op.apply, u)
    block_s, block_reps = _time_apply(op.apply_block, padded)
    return {
        "backend": backend,
        "setup_seconds": setup_s,
        "full_apply_seconds": full_s,
        "full_reps": full_reps,
        "full_dp_per_second": grid.num_points / full_s,
        "block_apply_seconds": block_s,
        "block_reps": block_reps,
        "block_dp_per_second": BLOCK * BLOCK / block_s,
        "peak_rss_bytes": peak_rss_bytes(),
    }


def run_rows():
    return {row["backend"]: row for row in map(measure, backend_names())}


def test_backend_throughput(benchmark):
    rows = run_rows()
    direct = rows["direct"]
    print(f"\nKernel backend apply throughput — mesh {NX}x{NX}, "
          f"eps = {EPS_FACTOR:g}h (mask "
          f"{int(2 * EPS_FACTOR) + 1}x{int(2 * EPS_FACTOR) + 1}), "
          f"block {BLOCK}x{BLOCK}:")
    header = (f"  {'backend':8s} {'setup':>9s} {'full apply':>11s} "
              f"{'full speedup':>13s} {'block apply':>12s} "
              f"{'block speedup':>14s}")
    print(header)
    for name, row in rows.items():
        print(f"  {name:8s} {row['setup_seconds'] * 1e3:7.1f} ms "
              f"{row['full_apply_seconds'] * 1e3:8.2f} ms "
              f"{direct['full_apply_seconds'] / row['full_apply_seconds']:12.2f}x "
              f"{row['block_apply_seconds'] * 1e3:9.3f} ms "
              f"{direct['block_apply_seconds'] / row['block_apply_seconds']:13.2f}x")

    # acceptance: FFT or sparse >= 2x direct on full-grid apply throughput
    best = max(rows["fft"]["full_dp_per_second"],
               rows["sparse"]["full_dp_per_second"])
    speedup = best / direct["full_dp_per_second"]
    print(f"  best non-direct speedup: {speedup:.2f}x "
          f"(acceptance: >= {_MIN_SPEEDUP:g}x)")
    assert speedup >= _MIN_SPEEDUP

    payload = {
        "benchmark": "kernel_backends",
        "mesh": [NX, NX],
        "eps_factor": EPS_FACTOR,
        "block": BLOCK,
        "backends": rows,
        "best_full_speedup_over_direct": speedup,
    }
    out = os.environ.get("REPRO_BENCH_JSON")
    if out:
        write_json(out, payload)
    else:
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))

    benchmark(lambda: rows)  # rows cached; keep pytest-benchmark happy
