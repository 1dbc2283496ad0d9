"""Name-registry semantics, once for every registry.

Kernel backends, balancing strategies and cost models share one
:class:`repro.registry.Registry`.  Explicit names win over the
environment; the kind's variable reroutes only ``"auto"`` requests
(``=auto`` means "no override"); bad names fail with the kind's noun
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

Kind = namedtuple("Kind", "module register names get requested noun "
                          "env_var")

KINDS = {
    "backend": Kind(backends, backends.register_backend,
                    backends.backend_names, backends.get_backend_class,
                    backends.requested_backend, "kernel backend",
                    "REPRO_KERNEL_BACKEND"),
    "strategy": Kind(strategies, strategies.register_strategy,
                     strategies.strategy_names,
                     strategies.get_strategy_class,
                     strategies.requested_strategy, "balancing strategy",
                     "REPRO_BALANCER"),
    "cost_model": Kind(costmodels, costmodels.register_cost_model,
                       costmodels.cost_model_names,
                       costmodels.get_cost_model_class,
                       costmodels.requested_cost_model, "cost model",
                       "REPRO_COST_MODEL"),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request, monkeypatch):
    k = KINDS[request.param]
    monkeypatch.delenv(k.env_var, raising=False)
    return k


def test_env_var_and_noun(kind):
    registry = kind.module.REGISTRY
    assert kind.module.ENV_VAR == registry.env_var == kind.env_var
    assert registry.noun == kind.noun


def test_public_names_are_registry_methods(kind):
    registry = kind.module.REGISTRY
    assert kind.register == registry.register
    assert kind.names == registry.names
    assert kind.get == registry.get
    assert kind.requested == registry.requested


def test_get_roundtrip(kind):
    names = kind.names()
    assert len(names) >= 2 and names == sorted(names)
    for name in names:
        assert kind.get(name).name == name


def test_unknown_name_rejected(kind):
    with pytest.raises(KeyError, match=f"unknown {kind.noun}"):
        kind.get("nope")
    with pytest.raises(ValueError, match=f"unknown {kind.noun}"):
        kind.requested("nope")


def test_errors_list_known_names(kind, monkeypatch):
    """A typo's error message says what would have worked."""
    names = kind.names()
    with pytest.raises(KeyError) as lookup:
        kind.get("nope")
    with pytest.raises(ValueError) as explicit:
        kind.requested("nope")
    monkeypatch.setenv(kind.env_var, "nope")
    with pytest.raises(ValueError) as forced:
        kind.requested(AUTO)
    for err in (lookup, explicit, forced):
        assert all(name in str(err.value) for name in names)


def test_duplicate_registration_rejected(kind):
    name = kind.names()[0]
    with pytest.raises(ValueError, match="already registered"):
        kind.register(name)(kind.get(name))


def test_auto_is_reserved(kind):
    with pytest.raises(ValueError, match="reserved"):
        kind.register(AUTO)(kind.get(kind.names()[0]))


def test_explicit_name_beats_env(kind, monkeypatch):
    first, last = kind.names()[0], kind.names()[-1]
    monkeypatch.setenv(kind.env_var, last)
    assert kind.requested(first) == first


def test_env_forces_auto(kind, monkeypatch):
    forced = kind.names()[-1]
    monkeypatch.setenv(kind.env_var, forced)
    assert kind.requested(AUTO) == forced
    assert kind.requested() == forced


def test_env_value_is_stripped(kind, monkeypatch):
    """Stray whitespace from shell exports does not make a name
    unknown, and a blank value means "no override"."""
    forced = kind.names()[-1]
    monkeypatch.setenv(kind.env_var, f"  {forced}\n")
    assert kind.requested(AUTO) == forced
    monkeypatch.setenv(kind.env_var, "   ")
    assert kind.requested(AUTO) == AUTO


def test_env_unset_leaves_auto(kind):
    assert kind.requested(AUTO) == AUTO
    assert kind.requested() == AUTO


def test_env_auto_means_no_override(kind, monkeypatch):
    """Exporting ``<VAR>=auto`` must behave like not setting it, not
    error out as an unknown name."""
    monkeypatch.setenv(kind.env_var, "auto")
    assert kind.requested(AUTO) == AUTO
    name = kind.names()[0]
    assert kind.requested(name) == name


def test_bad_env_rejected(kind, monkeypatch):
    monkeypatch.setenv(kind.env_var, "nope")
    with pytest.raises(ValueError, match=kind.env_var):
        kind.requested(AUTO)


def test_registries_are_independent(monkeypatch):
    widgets = Registry("widget", "REPRO_TEST_WIDGET")

    @widgets.register("spinner")
    class Spinner:
        pass

    assert Spinner.name == "spinner"
    assert widgets.names() == ["spinner"]
    for k in KINDS.values():
        assert "spinner" not in k.names()
    monkeypatch.setenv("REPRO_TEST_WIDGET", "spinner")
    assert widgets.requested() == "spinner"
