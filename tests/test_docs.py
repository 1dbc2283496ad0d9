"""Documentation consistency: the package docstring example must run,
and every ``repro`` name the docs cite must exist."""

import doctest
import importlib
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

#: A backticked dotted name such as `repro.amt.future` or
#: `repro.amt.des.Simulator`.
_CITED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def test_package_docstring_example():
    """The ``>>>`` example in ``repro.__doc__`` executes and passes."""
    results = doctest.testmod(repro, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_version_declared():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ lists missing name {name}"


@pytest.mark.parametrize("package", [
    "repro.amt", "repro.core", "repro.core.strategies", "repro.costmodel",
    "repro.experiments", "repro.mesh", "repro.models", "repro.partition",
    "repro.reporting", "repro.service", "repro.solver",
    "repro.solver.backends"])
def test_subpackage_exports_resolve(package):
    """No subpackage re-exports a name its modules no longer define."""
    module = importlib.import_module(package)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _resolves(dotted):
    """``dotted`` imports as a module or names an attribute of one."""
    try:
        importlib.import_module(dotted)
        return True
    except ModuleNotFoundError as exc:
        if exc.name != dotted:
            raise
    module, _, attr = dotted.rpartition(".")
    try:
        return hasattr(importlib.import_module(module), attr)
    except ModuleNotFoundError:
        return False


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
def test_cited_repro_names_resolve(doc):
    cited = sorted(set(_CITED.findall((ROOT / doc).read_text())))
    assert cited, f"{doc} cites no repro names"
    assert [n for n in cited if not _resolves(n)] == []
