"""Folded-cascode OTA (ROADMAP "larger topologies"; not in the paper's Fig. 6).

The larger of the two cascode topologies beyond the paper: eleven
devices, ten non-ground nodes and seven independent sources — an MNA
system roughly twice the 5T-OTA's, with the deep
cascode stack that makes single-stage gains of 50+ dB reachable where
the paper's three topologies top out around 30 dB.

Schematic (NMOS input, folded into a PMOS cascode with a wide-swing
NMOS cascode mirror as the load):

* M1/M2   -- NMOS differential pair (weak inversion, matched);
* M0      -- NMOS tail current source, gate at ``tail_bias``;
* M3/M4   -- PMOS folding current sources from ``vdd`` into the fold
  nodes ``x``/``y`` (they carry DP current plus branch current);
* M5/M6   -- PMOS cascodes from the fold nodes down to ``o1``/``out``;
* M7/M8   -- NMOS cascodes of the load mirror;
* M9/M10  -- NMOS mirror pair to ground, gates self-biased from ``o1``
  (the drain of cascode M7), which closes the wide-swing mirror loop.

Single-ended output at ``out`` (drains of M6/M8) into the 500 fF load.
The DP drains *fold* into the sources of the PMOS cascodes, so the
input common mode is decoupled from the output stack — the classic
reason to pay the extra branch current.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..devices import NMOS_65NM, PMOS_65NM
from ..spice import Circuit
from .base import DeviceGroup, OTATopology
from .registry import register

__all__ = ["FoldedCascodeOTA"]


@register
class FoldedCascodeOTA(OTATopology):
    """Folded-cascode OTA: the largest registered MNA system."""

    name = "FC-OTA"
    #: Single-stage but high output impedance into 500 fF: the dominant
    #: pole sits well below the 5T-OTA's, so the settling window is
    #: stretched accordingly.
    tran_t_stop = 4e-6
    tran_steps = 200
    tail_bias = 0.48
    #: Source-gate drop of the PMOS folding current sources, referenced
    #: to the rail (``v(vbf) = vdd - fold_drop``) so the fold current
    #: survives supply-scaled corners instead of cutting off when the
    #: rail sags below a ground-referenced bias.  0.50 V keeps the fold
    #: devices in moderate inversion (IC ~ 2.5) so their Vds,sat fits in
    #: the ~0.2 V the cascode stack leaves them.
    fold_drop = 0.50
    #: Rail-referenced gate drop of the PMOS cascodes
    #: (``v(vbp) = vdd - pcasc_drop``; keeps their Vsg supply-independent
    #: and leaves the fold sources enough Vds to saturate).
    pcasc_drop = 0.76
    #: Gate bias of the NMOS load-mirror cascodes (ground-referenced,
    #: like every NMOS bias); high enough that the mirror devices below
    #: them sit clearly past Vds,sat.
    ncasc_bias = 0.72

    _GROUPS = (
        DeviceGroup(
            name="M1",
            devices=("M1", "M2"),
            role="DP",
            tech=NMOS_65NM,
            region="weak",
            width_bounds=(5e-6, 50e-6),
        ),
        DeviceGroup(
            name="M0",
            devices=("M0",),
            role="Tail MOS",
            tech=NMOS_65NM,
            region=None,
            width_bounds=(0.7e-6, 12e-6),
        ),
        DeviceGroup(
            name="M3",
            devices=("M3", "M4"),
            role="Folding current source",
            tech=PMOS_65NM,
            region=None,
            width_bounds=(1e-6, 20e-6),
        ),
        DeviceGroup(
            name="M5",
            devices=("M5", "M6"),
            role="PMOS cascode",
            tech=PMOS_65NM,
            region=None,
            width_bounds=(1e-6, 20e-6),
        ),
        DeviceGroup(
            name="M7",
            devices=("M7", "M8"),
            role="NMOS cascode",
            tech=NMOS_65NM,
            region=None,
            width_bounds=(0.7e-6, 12e-6),
        ),
        DeviceGroup(
            name="M9",
            devices=("M9", "M10"),
            role="Mirror load",
            tech=NMOS_65NM,
            region=None,
            width_bounds=(0.7e-6, 12e-6),
        ),
    )

    @property
    def groups(self) -> tuple[DeviceGroup, ...]:
        return self._GROUPS

    def build(self, widths: Mapping[str, float], vcm: float | None = None) -> Circuit:
        per_device = self.expand_widths(widths)
        vcm_value = self.vcm if vcm is None else vcm
        circuit = Circuit(name=self.name)
        circuit.add_vsource("VDD", "vdd", "0", self.vdd, ac=0.0)
        circuit.add_vsource("VINP", "inp", "0", vcm_value, ac=+0.5)
        circuit.add_vsource("VINN", "inn", "0", vcm_value, ac=-0.5)
        circuit.add_vsource("VB1", "vb1", "0", self.tail_bias, ac=0.0)
        # PMOS biases are *rail-referenced*: v(gate) = vdd - drop.  They
        # are wired to ground (the DP-SFG builder requires grounded
        # sources) and re-pinned at the scaled rail by ``_apply_corner``,
        # which keeps the Vsg of the fold/cascode devices supply-independent.
        circuit.add_vsource("VBF", "vbf", "0", self.vdd - self.fold_drop, ac=0.0)
        circuit.add_vsource("VBP", "vbp", "0", self.vdd - self.pcasc_drop, ac=0.0)
        circuit.add_vsource("VBN", "vbn", "0", self.ncasc_bias, ac=0.0)

        length = self.length
        # Input pair folded at x/y; tail to ground.
        circuit.add_mosfet("M1", "x", "inp", "tail", NMOS_65NM, per_device["M1"], length)
        circuit.add_mosfet("M2", "y", "inn", "tail", NMOS_65NM, per_device["M2"], length)
        circuit.add_mosfet("M0", "tail", "vb1", "0", NMOS_65NM, per_device["M0"], length)
        # PMOS folding current sources and cascodes.
        circuit.add_mosfet("M3", "x", "vbf", "vdd", PMOS_65NM, per_device["M3"], length)
        circuit.add_mosfet("M4", "y", "vbf", "vdd", PMOS_65NM, per_device["M4"], length)
        circuit.add_mosfet("M5", "o1", "vbp", "x", PMOS_65NM, per_device["M5"], length)
        circuit.add_mosfet("M6", "out", "vbp", "y", PMOS_65NM, per_device["M6"], length)
        # Wide-swing NMOS cascode mirror load, self-biased from o1.
        circuit.add_mosfet("M7", "o1", "vbn", "m1", NMOS_65NM, per_device["M7"], length)
        circuit.add_mosfet("M8", "out", "vbn", "m2", NMOS_65NM, per_device["M8"], length)
        circuit.add_mosfet("M9", "m1", "o1", "0", NMOS_65NM, per_device["M9"], length)
        circuit.add_mosfet("M10", "m2", "o1", "0", NMOS_65NM, per_device["M10"], length)
        circuit.add_capacitor("CL", "out", "0", self.load_capacitance)
        return circuit

    def _apply_corner(self, circuit, corner):
        """Keep the PMOS biases rail-referenced at skewed corners: after
        the base rewrite scales the supply, re-pin each bias at the scaled
        rail minus its drop so the fold/cascode Vsg never collapses when
        the rail sags (the ss corner scales vdd by 0.90)."""
        circuit = super()._apply_corner(circuit, corner)
        if corner.vdd_scale != 1.0:
            rail = corner.supply(self.vdd)
            circuit.vsource("VBF").dc = rail - self.fold_drop
            circuit.vsource("VBP").dc = rail - self.pcasc_drop
        return circuit

    def initial_guess(self) -> dict[str, float]:
        return {
            "vdd": self.vdd,
            "inp": self.vcm,
            "inn": self.vcm,
            "vb1": self.tail_bias,
            "vbf": self.vdd - self.fold_drop,
            "vbp": self.vdd - self.pcasc_drop,
            "vbn": self.ncasc_bias,
            "tail": 0.20,
            "x": 1.00,
            "y": 1.00,
            "o1": 0.45,
            "out": 0.60,
            "m1": 0.25,
            "m2": 0.25,
        }
