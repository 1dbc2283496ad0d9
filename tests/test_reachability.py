"""Reachability: every public name ``src/`` defines is used outside tests.

The check parses ``src/``, ``benchmarks/`` and ``examples/`` with
``ast`` and collects every ``Name`` id and ``Attribute`` attr in those
trees.  A public (non-underscore) module-level function or class, or a
public method of a module-level class, defined in ``src/`` fails the
check when its name is not among them: then only tests reach it, and it
is either a test helper living in the library or dead code its own
tests keep alive.

Defs with a call decorator (``@register(...)``, ``@register_backend(...)``
and the like) are exempt: the decorator reaches them by name through a
registry, which no name use shows.  Any call counts, so a def under
``@dataclass(frozen=True)`` or ``@lru_cache(maxsize=...)`` is exempt too.

Limit: the check matches by name, not by binding.  A name used anywhere
in the three trees counts as a use of every def with that name, so a
test-only method hides behind any same-named attribute elsewhere: the
per-node ``SimCluster.bytes_sent`` went unflagged behind
``Topology.bytes_sent``, and ``CounterRegistry.get`` behind every
``dict.get``.
"""

import ast
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "benchmarks", "examples")

#: Public names kept although only tests (or CI) use them.
ALLOWED = {
    # the reader of the record format, used by CI's serve smoke step
    # and the golden tests
    "read_records",
    # reference oracles that tests compare the fast paths against
    "apply_operator_reference",
    "interior_multiplier",
}


def _parsed(tree):
    for path in sorted((ROOT / tree).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _used_names():
    used = set()
    for tree in TREES:
        for _, module in _parsed(tree):
            for node in ast.walk(module):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def _public_defs(module):
    """Module-level functions and classes, and the methods of those
    classes, whose names do not start with an underscore."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in module.body:
        if not isinstance(node, kinds):
            continue
        if not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, kinds)
                        and not m.name.startswith("_"))


def _registered(node):
    return any(isinstance(d, ast.Call) for d in node.decorator_list)


def unreached():
    """``(path:line, name)`` of each public def only tests can reach."""
    used = _used_names()
    found = []
    for path, module in _parsed("src"):
        for node in _public_defs(module):
            if node.name in used or node.name in ALLOWED or _registered(node):
                continue
            found.append((f"{path.relative_to(ROOT)}:{node.lineno}",
                          node.name))
    return found


def test_every_public_def_is_reached_outside_tests():
    assert unreached() == []


def test_allowlist_names_only_unreached_defs():
    """An allowlisted name that gains a caller leaves the allowlist."""
    used = _used_names()
    defined = {node.name for _, module in _parsed("src")
               for node in _public_defs(module)}
    assert sorted(ALLOWED - defined) == []
    assert sorted(ALLOWED & used) == []


def _parse(code):
    return ast.parse(textwrap.dedent(code))


def test_public_defs_are_module_and_class_level_only():
    module = _parse("""
        def f():
            def nested(): pass
        def _private(): pass
        class C:
            def method(self): pass
            def __init__(self): pass
            class Inner:
                def deep(self): pass
        class _Hidden:
            def shown(self): pass
        """)
    assert [n.name for n in _public_defs(module)] == [
        "f", "C", "method", "Inner", "shown"]


@pytest.mark.parametrize("decorator, exempt", [
    ("@register('quickstart')", True),
    ("@register_backend('fft')", True),
    ("@property", False),
    ("@staticmethod", False),
])
def test_only_call_decorators_exempt(decorator, exempt):
    (node,) = _parse(f"{decorator}\ndef f(): pass").body
    assert _registered(node) is exempt
