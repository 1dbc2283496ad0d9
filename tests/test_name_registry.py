"""Name-registry semantics, once for every registry.

Kernel backends, balancing strategies and cost models share one
:class:`repro.registry.Registry`.  Bad names fail with the kind's noun
in the message.  Each kind's own ``auto`` fallback (the radius
heuristic, the ``tree`` default, the ``flat`` default) is tested next
to the kind.
"""

from collections import namedtuple

import pytest

from repro.core.strategies import registry as strategies
from repro.costmodel import registry as costmodels
from repro.registry import AUTO, Registry
from repro.solver.backends import registry as backends

Kind = namedtuple("Kind", "module register names get noun")

KINDS = {
    "backend": Kind(backends, backends.register_backend,
                    backends.backend_names, backends.get_backend_class,
                    "kernel backend"),
    "strategy": Kind(strategies, strategies.register_strategy,
                     strategies.strategy_names,
                     strategies.get_strategy_class, "balancing strategy"),
    "cost_model": Kind(costmodels, costmodels.register_cost_model,
                       costmodels.cost_model_names,
                       costmodels.get_cost_model_class, "cost model"),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def test_noun(kind):
    assert kind.module.REGISTRY.noun == kind.noun


def test_public_names_are_registry_methods(kind):
    registry = kind.module.REGISTRY
    assert kind.register == registry.register
    assert kind.names == registry.names
    assert kind.get == registry.get


def test_get_roundtrip(kind):
    names = kind.names()
    assert len(names) >= 2 and names == sorted(names)
    for name in names:
        assert kind.get(name).name == name


def test_unknown_name_rejected(kind):
    with pytest.raises(ValueError, match=f"unknown {kind.noun}"):
        kind.get("nope")
    # "auto" is resolved by the kind before lookup, never registered
    with pytest.raises(ValueError, match=f"unknown {kind.noun}"):
        kind.get(AUTO)


def test_errors_list_known_names(kind):
    """A typo's error message says what would have worked."""
    with pytest.raises(ValueError) as lookup:
        kind.get("nope")
    assert all(name in str(lookup.value) for name in kind.names())
    assert repr(AUTO) in str(lookup.value)


def test_duplicate_registration_rejected(kind):
    name = kind.names()[0]
    with pytest.raises(ValueError, match="already registered"):
        kind.register(name)(kind.get(name))


def test_auto_is_reserved(kind):
    with pytest.raises(ValueError, match="reserved"):
        kind.register(AUTO)(kind.get(kind.names()[0]))


def test_registries_are_independent():
    widgets = Registry("widget")

    @widgets.register("spinner")
    class Spinner:
        pass

    assert Spinner.name == "spinner"
    assert widgets.names() == ["spinner"]
    for k in KINDS.values():
        assert "spinner" not in k.names()
    assert widgets.get("spinner") is Spinner
