"""Circuit-level MOSFET instance wrapping the EKV model core.

The EKV core in :mod:`repro.devices.ekv` works in a polarity-normalized
frame (``Vgs, Vds >= 0`` in normal operation for both device types).  This
module performs the mapping between circuit node voltages and that frame,
and exposes the quantities the MNA solver needs:

* ``i_ds`` -- the current flowing from the *drain node* through the device
  to the *source node* in the circuit frame (negative for PMOS in normal
  operation, since the channel current physically flows source-to-drain);
* the Jacobian entries ``d i_ds / d {vg, vd, vs}``.

A convenient identity falls out of the polarity algebra: the circuit-frame
Jacobian entries equal the normalized ``gm``/``gds`` for both polarities::

    d i_ds/d vg = gm,   d i_ds/d vd = gds,   d i_ds/d vs = -(gm + gds)

so the small-signal (AC) stamps are polarity independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ekv import EKVModel, SmallSignal
from .params import TechParams

__all__ = ["MOSFET", "OperatingPoint"]


@dataclass(frozen=True)
class OperatingPoint:
    """DC operating point of one MOSFET in the normalized frame."""

    vgs: float
    vds: float
    small_signal: SmallSignal
    inversion_coefficient: float
    saturated: bool

    @property
    def region(self) -> str:
        """Inversion region name: ``weak``, ``moderate`` or ``strong``."""
        if self.inversion_coefficient < 1.0:
            return "weak"
        if self.inversion_coefficient <= 10.0:
            return "moderate"
        return "strong"


@dataclass
class MOSFET:
    """One MOSFET instance: name, terminals, geometry and model.

    Terminals are node names in the owning :class:`~repro.spice.netlist.Circuit`.
    The bulk terminal is tied to the source (as in the paper's LUT, which is
    indexed only by ``Vgs`` and ``Vds``).
    """

    name: str
    drain: str
    gate: str
    source: str
    tech: TechParams
    width: float
    length: float
    #: Derived from ``tech``; a per-instance object, so not compared.
    model: EKVModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.length <= 0:
            raise ValueError(
                f"{self.name}: width and length must be positive "
                f"(W={self.width}, L={self.length})"
            )
        self.model = EKVModel(self.tech)

    # ------------------------------------------------------------------
    # Frame mapping
    # ------------------------------------------------------------------
    def normalized_bias(self, vd: float, vg: float, vs: float) -> tuple[float, float]:
        """Map circuit-frame terminal voltages to normalized ``(vgs, vds)``."""
        pol = self.tech.polarity
        return pol * (vg - vs), pol * (vd - vs)

    # ------------------------------------------------------------------
    # Nonlinear DC quantities (circuit frame)
    # ------------------------------------------------------------------
    def ids(self, vd: float, vg: float, vs: float) -> float:
        """Drain-to-source channel current in the circuit frame (A)."""
        vgs, vds = self.normalized_bias(vd, vg, vs)
        return self.tech.polarity * float(
            self.model.drain_current(vgs, vds, self.width, self.length)
        )

    def conductances(self, vd: float, vg: float, vs: float) -> tuple[float, float]:
        """Normalized ``(gm, gds)`` at the bias point (polarity-independent)."""
        vgs, vds = self.normalized_bias(vd, vg, vs)
        gm = float(self.model.transconductance(vgs, vds, self.width, self.length))
        gds = float(self.model.output_conductance(vgs, vds, self.width, self.length))
        return gm, gds

    # ------------------------------------------------------------------
    # Operating point extraction
    # ------------------------------------------------------------------
    def operating_point(self, vd: float, vg: float, vs: float) -> OperatingPoint:
        """Full operating-point bundle (small-signal params, region, sat)."""
        vgs, vds = self.normalized_bias(vd, vg, vs)
        small = self.model.small_signal(vgs, vds, self.width, self.length)
        ic = float(self.model.inversion_coefficient(vgs, vds))
        saturated = bool(self.model.is_saturated(vgs, vds))
        return OperatingPoint(
            vgs=vgs,
            vds=vds,
            small_signal=small,
            inversion_coefficient=ic,
            saturated=saturated,
        )

    def with_width(self, width: float) -> MOSFET:
        """Return a copy of this device with a different width."""
        return MOSFET(
            name=self.name,
            drain=self.drain,
            gate=self.gate,
            source=self.source,
            tech=self.tech,
            width=width,
            length=self.length,
        )

    def with_tech(self, tech: TechParams) -> MOSFET:
        """Return a copy under a different technology parameter set.

        Used by the corner machinery: a PVT corner rebuilds every device of
        a circuit with skewed ``TechParams`` (and the matching fresh
        :class:`EKVModel`) while geometry and connectivity stay shared.
        """
        return MOSFET(
            name=self.name,
            drain=self.drain,
            gate=self.gate,
            source=self.source,
            tech=tech,
            width=self.width,
            length=self.length,
        )
