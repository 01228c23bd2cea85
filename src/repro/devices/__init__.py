"""Device substrate: EKV-style MOSFET compact model, instances and corners."""

from .corners import (
    CORNER_PRESETS,
    NOMINAL_CORNER,
    Corner,
    CornerLike,
    number_field,
    resolve_corner,
    resolve_corners,
    thermal_voltage,
)
from .ekv import EKVModel, SmallSignal, interp_f, interp_f_prime
from .mosfet import MOSFET, OperatingPoint
from .params import NMOS_65NM, PMOS_65NM, TEMPERATURE_K, THERMAL_VOLTAGE, VDD, TechParams

__all__ = [
    "Corner",
    "CornerLike",
    "CORNER_PRESETS",
    "NOMINAL_CORNER",
    "number_field",
    "resolve_corner",
    "resolve_corners",
    "thermal_voltage",
    "EKVModel",
    "SmallSignal",
    "interp_f",
    "interp_f_prime",
    "MOSFET",
    "OperatingPoint",
    "NMOS_65NM",
    "PMOS_65NM",
    "TechParams",
    "VDD",
    "TEMPERATURE_K",
    "THERMAL_VOLTAGE",
]
