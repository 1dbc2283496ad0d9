"""Cold start: importing ``repro`` loads no scipy module.

Each case runs in a fresh interpreter, since this process has long since
imported scipy.  The checks read ``sys.modules``, never a clock, so they
are deterministic.  The second half runs each function that imports its
scipy module on first use, as the first thing a fresh process does, and
checks that it computes the right result; the FFT backend, on
``numpy.fft``, must load none.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``repro`` importable;
    return its stdout (the test fails on a non-zero exit)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


@pytest.mark.parametrize("code", [
    "import repro, repro.experiments, repro.cli",
    # at most 64 vertices: the Laplacian is built dense, no scipy.sparse
    "from repro.partition import grid_dual_graph, spectral_partition\n"
    "spectral_partition(grid_dual_graph(4, 4), 4)",
    "from repro.partition import grid_dual_graph, spectral_bisection\n"
    "spectral_bisection(grid_dual_graph(8, 8))",
], ids=["import", "small_spectral_partition", "spectral_at_dense_cutoff"])
def test_loads_no_scipy_module(code):
    out = run_fresh(code + "\n" + _LOADED)
    assert json.loads(out) == []


def test_quickstart_run_loads_no_scipy_module(tmp_path):
    out = run_fresh(textwrap.dedent(f"""
        import repro.cli
        rc = repro.cli.main(["run", "--scenario", "quickstart",
                             "--steps", "2", "--json",
                             {str(tmp_path / "q.json")!r}])
        assert rc == 0, rc
        """) + _LOADED)
    # a numerics run on the fft backend: kernel, manufactured source and
    # eq.-(7) error all run on numpy alone
    assert json.loads(out.splitlines()[-1]) == []


# -- each deferred import works when its path runs first ---------------------

_BACKEND_CASE = """
import sys
import numpy as np
from repro.mesh.stencil import build_stencil
from repro.solver.backends import apply_operator_reference, make_backend
from repro.solver.model import constant_influence

assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
stencil = build_stencil(0.1, 0.3, constant_influence)
backend = make_backend({name!r}, stencil, 2.5)
u = np.random.default_rng(0).standard_normal((13, 11))
ref = apply_operator_reference(stencil, 2.5, u)
np.testing.assert_allclose(backend.apply_full(u), ref, rtol=1e-12, atol=1e-12)
# away from the edges zero extension plays no part, so the reference's
# interior is the padded apply of the whole array
r = stencil.radius
np.testing.assert_allclose(backend.apply_padded(u), ref[r:-r, r:-r],
                           rtol=1e-12, atol=1e-12)
print("ok")
"""


@pytest.mark.parametrize("name, module", [
    ("direct", "scipy.signal"),
    ("fft", None),  # numpy.fft: loads no scipy module at all
    ("sparse", "scipy.sparse"),
])
def test_backend_apply_runs_first(name, module):
    out = run_fresh(_BACKEND_CASE.format(name=name) + _LOADED)
    ok, loaded = out.splitlines()
    assert ok == "ok"
    if module is None:
        assert json.loads(loaded) == []
    else:
        assert module in json.loads(loaded)


def test_spectral_partition_eigsh_path_runs_first():
    out = run_fresh("""
        import sys
        import numpy as np
        from repro.partition.graph import grid_dual_graph
        from repro.partition.spectral import fiedler_vector, spectral_partition

        assert "scipy.sparse.linalg" not in sys.modules
        graph = grid_dual_graph(12, 8)  # 96 vertices: past the dense cutoff
        fiedler = fiedler_vector(graph)
        assert "scipy.sparse.linalg" in sys.modules
        # the Fiedler vector of a 12 x 8 grid varies along the long axis
        # and is orthogonal to the constant vector
        assert abs(fiedler.sum()) < 1e-8 * np.abs(fiedler).sum()
        sizes = np.bincount(spectral_partition(graph, 4), minlength=4)
        assert len(sizes) == 4 and sizes.min() >= 22, sizes
        print("ok")
        """)
    assert out.strip() == "ok"


def test_interior_multiplier_runs_first():
    out = run_fresh("""
        import sys
        from repro.mesh.grid import UniformGrid
        from repro.solver.exact import ManufacturedProblem, interior_multiplier
        from repro.solver.model import NonlocalHeatModel

        assert "scipy.special" not in sys.modules
        grid = UniformGrid(32, 32)
        model = NonlocalHeatModel(epsilon=4 * grid.h)
        m = interior_multiplier(model)
        assert "scipy.special" in sys.modules
        prob = ManufacturedProblem(model, grid, oversample=11)
        ratio = prob._integral_of_space[16, 16] / model.c / prob._space[16, 16]
        assert abs(ratio / m - 1) < 0.02, (ratio, m)
        print("ok")
        """)
    assert out.strip() == "ok"
