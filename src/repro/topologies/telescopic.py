"""Telescopic-cascode OTA (ROADMAP "larger topologies"; not in Fig. 6).

The second cascode topology beyond the paper: nine
devices stacked five high between the rails — the classic
minimum-power route to cascode gain when the input common mode can be
fixed, and a deeper MNA system (nine non-ground nodes, six sources)
than any of the paper's three topologies.

Schematic (all four cascode devices sit in the *same* branch as the
differential pair — "telescopic" — unlike the folded-cascode's separate
output branch):

* M1/M2 -- NMOS differential pair (weak inversion, matched);
* M0    -- NMOS tail current source, gate at ``tail_bias``;
* M3/M4 -- NMOS cascodes directly on top of the DP drains;
* M5/M6 -- PMOS cascodes below the mirror loads;
* M7/M8 -- PMOS mirror loads at ``vdd``, gates self-biased from ``o1``
  (the drain of cascode M5), closing the cascoded-mirror loop.

Single-ended output at ``out`` (drains of M4/M6) into the 500 fF load.
With 1.2 V of supply and five stacked devices the headroom per device
is ~0.2 V, so the bias points deliberately run the stack in moderate
inversion — exactly the kind of tight-headroom design the sizing flow
should be able to explore.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..devices import NMOS_65NM, PMOS_65NM
from ..spice import Circuit
from .base import DeviceGroup, OTATopology
from .registry import register

__all__ = ["TelescopicOTA"]


@register
class TelescopicOTA(OTATopology):
    """Telescopic-cascode OTA: tight-headroom cascode stack."""

    name = "TELE-OTA"
    #: High output impedance into the 500 fF load: slow dominant pole,
    #: so settle over a longer window than the paper's single-stage OTAs.
    tran_t_stop = 4e-6
    tran_steps = 200
    tail_bias = 0.48
    #: Gate bias of the NMOS cascodes on top of the DP.
    ncasc_bias = 0.85
    #: Gate bias of the PMOS cascodes under the mirror loads; 0.45 V
    #: lifts their sources far enough below the rail that both the
    #: cascodes and the mirror loads clear Vds,sat in the ~0.2 V/device
    #: headroom the five-high stack allows.
    pcasc_bias = 0.45

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
            role="NMOS cascode",
            tech=NMOS_65NM,
            region=None,
            width_bounds=(0.7e-6, 12e-6),
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
            role="Mirror load",
            tech=PMOS_65NM,
            region=None,
            width_bounds=(1e-6, 20e-6),
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
        circuit.add_vsource("VBN", "vbn", "0", self.ncasc_bias, ac=0.0)
        circuit.add_vsource("VBP", "vbp", "0", self.pcasc_bias, ac=0.0)

        length = self.length
        # DP and tail.
        circuit.add_mosfet("M1", "d1", "inp", "tail", NMOS_65NM, per_device["M1"], length)
        circuit.add_mosfet("M2", "d2", "inn", "tail", NMOS_65NM, per_device["M2"], length)
        circuit.add_mosfet("M0", "tail", "vb1", "0", NMOS_65NM, per_device["M0"], length)
        # NMOS cascodes straight on top of the DP drains.
        circuit.add_mosfet("M3", "o1", "vbn", "d1", NMOS_65NM, per_device["M3"], length)
        circuit.add_mosfet("M4", "out", "vbn", "d2", NMOS_65NM, per_device["M4"], length)
        # PMOS cascodes and the self-biased mirror loads above them.
        circuit.add_mosfet("M5", "o1", "vbp", "s1", PMOS_65NM, per_device["M5"], length)
        circuit.add_mosfet("M6", "out", "vbp", "s2", PMOS_65NM, per_device["M6"], length)
        circuit.add_mosfet("M7", "s1", "o1", "vdd", PMOS_65NM, per_device["M7"], length)
        circuit.add_mosfet("M8", "s2", "o1", "vdd", PMOS_65NM, per_device["M8"], length)
        circuit.add_capacitor("CL", "out", "0", self.load_capacitance)
        return circuit

    def initial_guess(self) -> dict[str, float]:
        return {
            "vdd": self.vdd,
            "inp": self.vcm,
            "inn": self.vcm,
            "vb1": self.tail_bias,
            "vbn": self.ncasc_bias,
            "vbp": self.pcasc_bias,
            "tail": 0.20,
            "d1": 0.35,
            "d2": 0.35,
            "o1": 0.70,
            "out": 0.70,
            "s1": 0.95,
            "s2": 0.95,
        }
