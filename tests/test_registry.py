"""One contract for both name -> factory registries: topologies and solvers."""

from types import SimpleNamespace

import pytest

from repro import solvers, topologies

REGISTRIES = {
    "topology": SimpleNamespace(
        kind="topology",
        register=topologies.register,
        unregister=topologies.unregister,
        factory=topologies.topology_factory,
        names=topologies.available_topologies,
    ),
    "solver": SimpleNamespace(
        kind="solver",
        register=solvers.register,
        unregister=solvers.unregister,
        factory=solvers.solver_factory,
        names=solvers.available_solvers,
    ),
}

NAMES = ("contract-a", "contract-b", "contract-c")


def _factory(*args, **kwargs):
    return None


@pytest.fixture(params=sorted(REGISTRIES))
def registry(request):
    """One registry's public functions; every ``contract-*`` entry is
    removed afterwards."""
    registry = REGISTRIES[request.param]
    yield registry
    for name in NAMES:
        registry.unregister(name)
    assert not set(NAMES) & set(registry.names())


def test_decorator_and_explicit_name_forms(registry):
    @registry.register
    class Named:
        name = "contract-a"

    assert registry.register(_factory, name="contract-b") is _factory
    assert registry.register(name="contract-c")(_factory) is _factory
    assert registry.factory("contract-a") is Named
    assert registry.factory("contract-b") is registry.factory("contract-c") is _factory


def test_duplicate_raises_unless_replaced(registry):
    registry.register(_factory, name="contract-a")
    with pytest.raises(
        ValueError, match=f"^{registry.kind} 'contract-a' is already registered$"
    ):
        registry.register(lambda: None, name="contract-a")
    assert registry.factory("contract-a") is _factory

    def shadow():
        return None

    assert registry.register(shadow, name="contract-a", replace=True) is shadow
    assert registry.factory("contract-a") is shadow


def test_factory_needs_a_name(registry):
    with pytest.raises(ValueError, match=f"^{registry.kind} factory needs a 'name' attribute"):
        registry.register(_factory)


def test_unknown_name_lists_registered(registry):
    registry.register(_factory, name="contract-a")
    known = ", ".join(sorted(registry.names()))
    with pytest.raises(KeyError) as caught:
        registry.factory("contract-missing")
    message = f"unknown {registry.kind} 'contract-missing' (registered: {known})"
    assert caught.value.args[0] == message


def test_registration_order_and_unregister(registry):
    stock = registry.names()
    for name in ("contract-b", "contract-a", "contract-c"):
        registry.register(_factory, name=name)
    assert registry.names() == (*stock, "contract-b", "contract-a", "contract-c")
    registry.unregister("contract-a")
    registry.unregister("contract-missing")  # a no-op
    assert registry.names() == (*stock, "contract-b", "contract-c")
