"""Pluggable solver registry, mirroring the topology registry.

Each solver module *declares* itself with :func:`register` (usable as a
class decorator); the sizing engine, the CLI and the benchmarks resolve
method names through the registry, so adding a sizing method means
registering one class -- no dispatch table to edit::

    from repro.solvers import Solver, register

    @register
    class RandomSearch(Solver):
        name = "random"

        def solve(self, spec, budget=None, rng=None):
            ...

``get`` returns the registered factory (call it with a topology);
``create`` combines lookup and construction.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

from ..topologies import OTATopology
from .base import Solver

__all__ = [
    "register",
    "unregister",
    "get",
    "create",
    "solver_factory",
    "available_solvers",
]

F = TypeVar("F", bound=Callable[..., Solver])

#: name -> factory ``(topology, *, backend=None, corners=None, analyses=None)``,
#: in registration order (``corners`` selects worst-case PVT evaluation).
_REGISTRY: dict[str, Callable[..., Solver]] = {}


def register(factory: F | None = None, *, name: str | None = None, replace: bool = False):
    """Register a solver factory (class or callable) under its name.

    Usable directly (``register(ParticleSwarmSolver)``), as a decorator
    (``@register``), or with an explicit name for factories that don't
    carry a ``name`` attribute.  Duplicate names raise unless
    ``replace=True`` (useful for tests shadowing a stock solver).
    """
    if factory is None:  # @register(name=...) decorator form
        return lambda f: register(f, name=name, replace=replace)
    key = name or getattr(factory, "name", None)
    if not key or not isinstance(key, str):
        raise ValueError("solver factory needs a 'name' attribute or an explicit name=...")
    if not replace and key in _REGISTRY:
        raise ValueError(f"solver {key!r} is already registered")
    _REGISTRY[key] = factory
    return factory


def unregister(name: str) -> None:
    """Remove a registered solver (primarily for test isolation)."""
    _REGISTRY.pop(name, None)


def solver_factory(name: str) -> Callable[..., Solver]:
    """The registered factory for ``name``; raises ``KeyError`` if absent."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown solver {name!r} (registered: {known})") from None


#: Alias: ``repro.solvers.get("pso")(topology).solve(spec, ...)``.
get = solver_factory


def create(name: str, topology: OTATopology, **kwargs) -> Solver:
    """Instantiate a registered solver for ``topology``.

    Keyword arguments (``backend=``, ``corners=``, ``analyses=``) are
    passed to the factory.
    """
    return solver_factory(name)(topology, **kwargs)


def available_solvers() -> tuple[str, ...]:
    """Registered solver names, in registration order."""
    return tuple(_REGISTRY)
