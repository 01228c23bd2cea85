"""SPICE substrate: netlists, DC operating point, AC/transient analyses, sweeps."""

from .ac import ACResult, default_frequency_grid, run_ac, run_ac_many
from .dc import ConvergenceError, DCSolution, solve_dc, solve_dc_many
from .export import parse_netlist, to_spice
from .linsolve import solve_stacked
from .metrics import (
    TRAN_METRIC_DIRECTIONS,
    TRAN_METRIC_NAMES,
    PerformanceMetrics,
    crossing_frequency,
    extract_metrics,
    extract_tran_metrics,
)
from .netlist import GROUND, Capacitor, Circuit, ISource, Resistor, VSource
from .tran import TranResult, run_tran, run_tran_many
from .sweep import (
    CharacterizationResult,
    ICMRResult,
    characterize_device,
    icmr_sweep,
)

__all__ = [
    "ACResult",
    "default_frequency_grid",
    "run_ac",
    "run_ac_many",
    "ConvergenceError",
    "solve_stacked",
    "parse_netlist",
    "to_spice",
    "DCSolution",
    "solve_dc",
    "solve_dc_many",
    "PerformanceMetrics",
    "TRAN_METRIC_NAMES",
    "TRAN_METRIC_DIRECTIONS",
    "crossing_frequency",
    "extract_metrics",
    "extract_tran_metrics",
    "TranResult",
    "run_tran",
    "run_tran_many",
    "GROUND",
    "Capacitor",
    "Circuit",
    "ISource",
    "Resistor",
    "VSource",
    "CharacterizationResult",
    "ICMRResult",
    "characterize_device",
    "icmr_sweep",
]
