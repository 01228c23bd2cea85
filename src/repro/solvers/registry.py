"""Pluggable solver registry: solver factories by name (a
:class:`~repro.registry.Registry`, which shows how to register)::

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

from ..registry import Registry
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

#: name -> factory ``(topology, *, backend=None, corners=None, analyses=None)``
#: (``corners`` selects worst-case PVT evaluation).
_SOLVERS: Registry[Callable[..., Solver]] = Registry("solver")

register = _SOLVERS.register
unregister = _SOLVERS.unregister
solver_factory = _SOLVERS.factory
#: Alias: ``repro.solvers.get("pso")(topology).solve(spec, ...)``.
get = solver_factory
available_solvers = _SOLVERS.names


def create(name: str, topology: OTATopology, **kwargs) -> Solver:
    """Instantiate a registered solver for ``topology``.

    Keyword arguments (``backend=``, ``corners=``, ``analyses=``) are
    passed to the factory.
    """
    return solver_factory(name)(topology, **kwargs)
