"""The one spec codec (:mod:`repro.codec`).

Every spec and event dataclass derives ``to_dict``/``from_dict`` from
its fields; these tests pin that no class hand-writes its own pair, that
every registry spec and telemetry event survives a JSON round trip with
exactly its field names as keys, and the decoder's type grammar and
its rejection of malformed input.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import pkgutil
import random
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

import repro
from repro.amt.faults import RecoveryEvent
from repro.codec import Codec
from repro.core.strategies import BalanceEvent
from repro.experiments import build_scenario, run_scenario
from repro.experiments.registry import get_factory, scenario_names
from repro.experiments.results import RunRecord
from repro.service.spec import ServiceSpec


def _repro_dataclasses():
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                found.add(obj)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def test_every_dict_codec_is_the_shared_one():
    classes = [c for c in _repro_dataclasses() if hasattr(c, "to_dict")]
    assert ServiceSpec in classes and BalanceEvent in classes
    for cls in classes:
        if cls is RunRecord:
            continue
        assert issubclass(cls, Codec), cls
        if cls is ServiceSpec:
            continue    # wraps the codec to add its dispatch marker
        assert cls.to_dict is Codec.to_dict, cls
        assert cls.from_dict.__func__ is Codec.from_dict.__func__, cls


def _assert_keys_are_fields(value):
    """At every nesting level the dict keys are the field names."""
    if isinstance(value, tuple):
        for item in value:
            _assert_keys_are_fields(item)
    if not isinstance(value, Codec):
        return
    names = {f.name for f in dataclasses.fields(value)}
    if isinstance(value, ServiceSpec):
        names.add("solver")
    assert set(value.to_dict()) == names, type(value)
    for f in dataclasses.fields(value):
        _assert_keys_are_fields(getattr(value, f.name))


def _assert_round_trips(value):
    text = json.dumps(value.to_dict())
    assert type(value).from_dict(json.loads(text)) == value
    _assert_keys_are_fields(value)


@pytest.mark.parametrize("name", scenario_names())
def test_registry_specs_round_trip(name):
    rng = random.Random(name)
    accepted = inspect.signature(get_factory(name)).parameters
    overrides = {}
    if "seed" in accepted:
        overrides["seed"] = rng.randrange(1000)
    if "steps" in accepted:
        overrides["steps"] = rng.randrange(1, 40)
    _assert_round_trips(build_scenario(name))
    _assert_round_trips(build_scenario(name, **overrides))


def test_telemetry_events_round_trip():
    record = run_scenario(build_scenario("hetero_churn", mesh=32,
                                         sd_axis=4, steps=8))
    assert record.balance_events and record.recovery_events
    for cls, rows in ((BalanceEvent, record.balance_events),
                      (RecoveryEvent, record.recovery_events)):
        for row in rows:
            event = cls.from_dict(row)
            assert event.to_dict() == row
            _assert_round_trips(event)


# -- decoder grammar, on test-local types ---------------------------------

@dataclass(frozen=True)
class _Leaf(Codec):
    x: int
    tag: str = "a"


@dataclass(frozen=True)
class _Tree(Codec):
    leaf: Optional[_Leaf] = None
    leaves: Tuple[_Leaf, ...] = ()
    grid: Tuple[Tuple[int, ...], ...] = ()
    pair: Optional[Tuple[float, float]] = None


def test_nested_types_round_trip():
    tree = _Tree(leaf=_Leaf(1), leaves=(_Leaf(2), _Leaf(3, "b")),
                 grid=((1, 2), (3,), ()), pair=(0.5, 1.5))
    assert tree.to_dict() == {
        "leaf": {"x": 1, "tag": "a"},
        "leaves": [{"x": 2, "tag": "a"}, {"x": 3, "tag": "b"}],
        "grid": [[1, 2], [3], []],
        "pair": [0.5, 1.5]}
    _assert_round_trips(tree)
    _assert_round_trips(_Tree())
    assert _Tree.from_dict({}) == _Tree()


@pytest.mark.parametrize("doc", [
    [1],                                # not a mapping at the top
    {"leaf": 1},                        # not a mapping where a class goes
    {"leaves": ["x"]},
    {"leaves": "ab"},                   # not a list where a tuple goes
    {"leaves": {"x": 1}},
    {"grid": [1]},
    {"pair": [1.0]},                    # wrong length for a fixed tuple
    {"bogus": 1},                       # no such field
])
def test_malformed_input_raises_type_error(doc):
    with pytest.raises(TypeError):
        _Tree.from_dict(doc)
