"""PVT corners: process skew, supply scaling and temperature in one knob.

The paper's flow verifies every candidate at a single nominal operating
condition (TT process, 1.2 V, 300 K).  A usable sizing must hold up at the
classic worst-case corners too, so this module defines the evaluation
context that the whole stack — topology ``build_circuit``/``measure``,
the batched SPICE solvers, the search objectives and the sizing service —
threads through:

* **process skew** scales the EKV threshold voltage ``vt0`` and the
  transconductance parameter ``kp`` (slow silicon: higher ``vt0``, lower
  mobility; fast silicon: the opposite);
* **supply** scales the topology's nominal ``vdd`` rail;
* **temperature** feeds the EKV thermal voltage ``Ut = kT/q`` (linear in
  ``T``, pinned to the seed's :data:`~repro.devices.params.THERMAL_VOLTAGE`
  at the nominal :data:`~repro.devices.params.TEMPERATURE_K` so the
  nominal corner stays bit-identical to the pre-corner substrate).

The nominal corner is the identity: :meth:`Corner.apply_tech` returns the
*same* :class:`TechParams` object and :meth:`Corner.supply` the unchanged
supply, which is what keeps every nominal-path result bit-identical to the
pre-refactor flow (pinned by the parity tests).

Presets follow the usual worst-case pairings — ``"ss"`` is slow silicon at
reduced supply and hot (85 C), ``"ff"`` fast silicon at raised supply and
cold (-40 C) — and :func:`resolve_corner` additionally accepts explicit
override mappings for custom conditions::

    resolve_corner("ss")
    resolve_corner({"process": "ss", "vdd_scale": 1.0})        # SS, nominal rail
    resolve_corner({"name": "hot", "temperature_k": 398.15})   # pure temperature
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from collections.abc import Mapping, Sequence
from typing import Union

from .params import TEMPERATURE_K, THERMAL_VOLTAGE, TechParams

__all__ = [
    "Corner",
    "CornerLike",
    "NOMINAL_CORNER",
    "CORNER_PRESETS",
    "thermal_voltage",
    "resolve_corner",
    "resolve_corners",
]

#: What :func:`resolve_corner` accepts: a preset name, an override mapping,
#: an already-resolved :class:`Corner`, or ``None`` (nominal).
CornerLike = Union["Corner", str, Mapping[str, object], None]


def thermal_voltage(temperature_k: float) -> float:
    """Thermal voltage ``kT/q`` (V) at ``temperature_k``.

    Linear in temperature and anchored so that the nominal temperature
    reproduces the seed's pinned :data:`THERMAL_VOLTAGE` constant exactly
    (a process-only corner therefore keeps the nominal ``Ut`` bit-for-bit).
    """
    if temperature_k <= 0:
        raise ValueError(f"temperature_k must be positive, got {temperature_k}")
    if temperature_k == TEMPERATURE_K:
        return THERMAL_VOLTAGE
    return THERMAL_VOLTAGE * (temperature_k / TEMPERATURE_K)


@dataclass(frozen=True)
class Corner:
    """One PVT evaluation context (hashable, so it can key caches).

    Attributes
    ----------
    name:
        Identifier used in request schemas, responses and cache keys
        (``"tt"``, ``"ss"``, ``"ff"``, or any custom label).
    vt0_scale / kp_scale:
        Process-skew multipliers applied to every device's threshold
        voltage and transconductance parameter.
    vdd_scale:
        Multiplier on the topology's nominal supply voltage.
    temperature_k:
        Simulation temperature; sets the EKV thermal voltage through
        :func:`thermal_voltage`.
    """

    name: str
    vt0_scale: float = 1.0
    kp_scale: float = 1.0
    vdd_scale: float = 1.0
    temperature_k: float = TEMPERATURE_K

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("corner name must be a non-empty string")
        # Names key JSON maps and the netlist header's whitespace-separated
        # field format; whitespace or "=" would make the header ambiguous.
        if "=" in self.name or any(char.isspace() for char in self.name):
            raise ValueError(
                f"corner name must not contain whitespace or '=', got {self.name!r}"
            )
        for field_name in ("vt0_scale", "kp_scale", "vdd_scale", "temperature_k"):
            value = getattr(self, field_name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"corner {field_name} must be positive and finite, got {value}"
                )

    @property
    def is_nominal(self) -> bool:
        """True when this corner is the identity evaluation context."""
        return (
            self.vt0_scale == 1.0
            and self.kp_scale == 1.0
            and self.vdd_scale == 1.0
            and self.temperature_k == TEMPERATURE_K
        )

    # ------------------------------------------------------------------
    def apply_tech(self, tech: TechParams) -> TechParams:
        """The corner-skewed technology parameters for ``tech``.

        The nominal corner returns ``tech`` itself (identity, bit-identical
        path); skewed corners return a cached derived parameter set, so all
        circuits built at one corner share the same ``TechParams`` objects
        (which is what lets the batched DC solver group them).
        """
        if self.is_nominal:
            return tech
        return _corner_tech(self, tech)

    def supply(self, nominal_vdd: float) -> float:
        """The corner's supply voltage for a nominal rail of ``nominal_vdd``."""
        if self.vdd_scale == 1.0:
            return nominal_vdd
        return nominal_vdd * self.vdd_scale

    # ------------------------------------------------------------------
    def label(self) -> str:
        """One-line summary used in netlist headers.

        Values use ``repr`` (shortest exact form), so the header parses
        back into an equal :class:`Corner` losslessly.
        """
        return (
            f"{self.name} vt0_scale={self.vt0_scale!r} kp_scale={self.kp_scale!r} "
            f"vdd_scale={self.vdd_scale!r} temperature_k={self.temperature_k!r}"
        )

    def to_json(self):
        """JSON form: the bare preset name when possible, else a flat dict."""
        preset = CORNER_PRESETS.get(self.name)
        if preset == self:
            return self.name
        return {
            "name": self.name,
            "vt0_scale": self.vt0_scale,
            "kp_scale": self.kp_scale,
            "vdd_scale": self.vdd_scale,
            "temperature_k": self.temperature_k,
        }


@lru_cache(maxsize=256)
def _corner_tech(corner: Corner, tech: TechParams) -> TechParams:
    """Corner-skewed :class:`TechParams`, cached so object identity is
    shared across every circuit built at the same corner."""
    return tech.with_(
        vt0=tech.vt0 * corner.vt0_scale,
        kp=tech.kp * corner.kp_scale,
        ut=thermal_voltage(corner.temperature_k),
    )


#: The identity context: TT silicon, nominal supply, nominal temperature.
NOMINAL_CORNER = Corner("tt")

#: Named presets with the classic worst-case pairings: slow silicon runs
#: hot at reduced supply, fast silicon runs cold at raised supply.
CORNER_PRESETS: dict[str, Corner] = {
    "tt": NOMINAL_CORNER,
    "ss": Corner("ss", vt0_scale=1.08, kp_scale=0.85, vdd_scale=0.90, temperature_k=358.15),
    "ff": Corner("ff", vt0_scale=0.92, kp_scale=1.15, vdd_scale=1.10, temperature_k=233.15),
}

_CORNER_FIELDS = tuple(f.name for f in fields(Corner))


def resolve_corner(spec: CornerLike) -> Corner:
    """Normalize a corner specification to a :class:`Corner`.

    Accepts ``None`` (nominal), a preset name, an already-built
    :class:`Corner`, or a mapping with optional ``process`` base preset
    plus field overrides (see the module docstring for examples).
    """
    if spec is None:
        return NOMINAL_CORNER
    if isinstance(spec, Corner):
        return spec
    if isinstance(spec, str):
        try:
            return CORNER_PRESETS[spec.lower()]
        except KeyError:
            known = ", ".join(sorted(CORNER_PRESETS))
            raise ValueError(f"unknown corner preset {spec!r} (known: {known})") from None
    if isinstance(spec, Mapping):
        unknown = set(spec) - set(_CORNER_FIELDS) - {"process"}
        if unknown:
            raise ValueError(f"unknown corner fields: {sorted(unknown)}")
        base = resolve_corner(str(spec["process"])) if "process" in spec else NOMINAL_CORNER
        kwargs = {name: getattr(base, name) for name in _CORNER_FIELDS}
        kwargs["name"] = spec.get("name", base.name if "process" in spec else "custom")
        for field_name in ("vt0_scale", "kp_scale", "vdd_scale", "temperature_k"):
            if field_name in spec:
                kwargs[field_name] = float(spec[field_name])  # type: ignore[arg-type]
        return Corner(**kwargs)  # type: ignore[arg-type]
    raise TypeError(f"cannot resolve a corner from {type(spec).__name__}")


def resolve_corners(specs: Sequence[CornerLike] | None) -> tuple[Corner, ...]:
    """Normalize a corner list; names must be unique (they key results)."""
    if specs is None:
        return ()
    corners = tuple(resolve_corner(spec) for spec in specs)
    names = [corner.name for corner in corners]
    if len(set(names)) != len(names):
        raise ValueError(f"corner names must be unique, got {names}")
    return corners
