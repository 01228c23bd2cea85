"""Name -> factory registries: the one implementation behind
:mod:`repro.topologies.registry` and :mod:`repro.solvers.registry`.

Each topology or solver module *declares* itself with its package's
``register`` (usable as a class decorator), and everything else -- the
training pipeline, the sizing engine, the CLI, the benchmarks -- resolves
names through the registry, so adding a circuit or a sizing method means
registering one class, with no dispatch table to edit::

    from repro.topologies import OTATopology, register

    @register
    class FoldedCascodeOTA(OTATopology):
        name = "FC-OTA"
        ...

or, for an arbitrary factory under an explicit name::

    register(lambda: FoldedCascodeOTA(vdd=1.0), name="FC-OTA-1V")
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Generic, TypeVar

__all__ = ["Registry"]

F = TypeVar("F", bound=Callable)


class Registry(Generic[F]):
    """Factories by name, in registration order; ``kind`` names an entry
    in error messages (``"topology"``, ``"solver"``)."""

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: dict[str, F] = {}

    def register(self, factory: F | None = None, *, name: str | None = None, replace: bool = False):
        """Register a factory (class or callable) under its name.

        Usable directly (``register(FiveTransistorOTA)``), as a decorator
        (``@register``), or with an explicit name for factories that don't
        carry a ``name`` attribute.  Duplicate names raise unless
        ``replace=True`` (useful for tests shadowing a stock entry).
        """
        if factory is None:  # @register(name=...) decorator form
            return lambda f: self.register(f, name=name, replace=replace)
        key = name or getattr(factory, "name", None)
        if not key or not isinstance(key, str):
            raise ValueError(
                f"{self.kind} factory needs a 'name' attribute or an explicit name=..."
            )
        if not replace and key in self._factories:
            raise ValueError(f"{self.kind} {key!r} is already registered")
        self._factories[key] = factory
        return factory

    def unregister(self, name: str) -> None:
        """Remove a registered factory (primarily for test isolation)."""
        self._factories.pop(name, None)

    def factory(self, name: str) -> F:
        """The registered factory for ``name``; raises ``KeyError`` if absent."""
        try:
            return self._factories[name]
        except KeyError:
            known = ", ".join(sorted(self._factories)) or "<none>"
            raise KeyError(f"unknown {self.kind} {name!r} (registered: {known})") from None

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        return tuple(self._factories)
