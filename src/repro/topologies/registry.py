"""Pluggable topology registry: zero-argument topology factories by name
(a :class:`~repro.registry.Registry`, which shows how to register)."""

from __future__ import annotations

from collections.abc import Callable

from ..registry import Registry
from .base import OTATopology

__all__ = ["register", "unregister", "topology_by_name", "available_topologies", "topology_factory"]

_TOPOLOGIES: Registry[Callable[[], OTATopology]] = Registry("topology")

register = _TOPOLOGIES.register
unregister = _TOPOLOGIES.unregister
topology_factory = _TOPOLOGIES.factory
available_topologies = _TOPOLOGIES.names


def topology_by_name(name: str) -> OTATopology:
    """Instantiate a topology from its paper name (``"5T-OTA"`` etc.)."""
    return topology_factory(name)()
