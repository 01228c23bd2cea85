"""DC sweeps: LUT characterization testbench and ICMR extraction.

Two sweep styles from the paper's flow live here:

* the nested ``(Vgs, Vds)`` characterization sweep of Fig. 5 that fills the
  precomputed LUT for a reference-width device, and
* the input common-mode range (ICMR) sweep used during dataset generation
  ("Sweeping the DC voltage to determine the input common-mode range of the
  designs", Sec. IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from ..devices import EKVModel, TechParams
from .dc import ConvergenceError, solve_dc
from .netlist import Circuit

__all__ = [
    "CharacterizationResult",
    "characterize_device",
    "icmr_sweep",
    "ICMRResult",
    "dc_transfer_sweep",
]


@dataclass
class CharacterizationResult:
    """Output of the nested characterization sweep (Fig. 5).

    Each table has shape ``(len(vgs_grid), len(vds_grid))`` and stores the
    quantity *per unit width* (divided by the reference width), which is how
    the paper's LUT is stored so that widths can be recovered by ratioing.
    """

    tech: TechParams
    length: float
    reference_width: float
    vgs_grid: np.ndarray
    vds_grid: np.ndarray
    tables: dict[str, np.ndarray]

    OUTPUTS = ("id", "gm", "gds", "cds", "cgs")


def characterize_device(
    tech: TechParams,
    reference_width: float = 700e-9,
    length: float = 180e-9,
    vgs_grid: Sequence[float] | None = None,
    vds_grid: Sequence[float] | None = None,
) -> CharacterizationResult:
    """Run the nested DC sweep of Fig. 5 and collect per-unit-width tables.

    The one-transistor testbench pins the gate and drain to the grid
    voltages with ideal sources, so its operating point *is* the grid
    point: the model is evaluated on the whole grid at once.  The
    point-by-point testbench solve (``tests/scalar_reference.py``) gives
    the same tables bit for bit.

    Parameters
    ----------
    tech:
        Device parameter set (NMOS or PMOS).
    reference_width, length:
        Geometry of the characterized reference device; the paper uses
        ``Wref = 700 nm`` and ``L = 180 nm`` in a 65 nm node.
    vgs_grid, vds_grid:
        Sweep grids in volts; default 0 to 1.2 V in 60 mV steps as in the
        paper (21 points per axis).
    """
    if vgs_grid is None:
        vgs_grid = np.arange(0.0, 1.2 + 1e-9, 0.06)
    if vds_grid is None:
        vds_grid = np.arange(0.0, 1.2 + 1e-9, 0.06)
    vgs_grid = np.asarray(vgs_grid, dtype=float)
    vds_grid = np.asarray(vds_grid, dtype=float)

    vgs_mesh, vds_mesh = np.meshgrid(vgs_grid, vds_grid, indexing="ij")
    values = EKVModel(tech).evaluate_all(vgs_mesh, vds_mesh, reference_width, length)
    tables = {
        name: np.asarray(values[name], dtype=float) / reference_width
        for name in CharacterizationResult.OUTPUTS
    }

    return CharacterizationResult(
        tech=tech,
        length=length,
        reference_width=reference_width,
        vgs_grid=vgs_grid,
        vds_grid=vds_grid,
        tables=tables,
    )


@dataclass
class ICMRResult:
    """Input common-mode range extracted from a Vcm sweep."""

    vcm_values: np.ndarray
    all_saturated: np.ndarray
    converged: np.ndarray

    @property
    def low(self) -> float:
        """Lowest Vcm where every monitored device is saturated (nan if none)."""
        valid = self.vcm_values[self.all_saturated]
        return float(valid[0]) if len(valid) else float("nan")

    @property
    def high(self) -> float:
        """Highest valid Vcm (nan if none)."""
        valid = self.vcm_values[self.all_saturated]
        return float(valid[-1]) if len(valid) else float("nan")

    def contains(self, vcm: float, tol: float = 1e-9) -> bool:
        """True when ``vcm`` lies inside the extracted range.

        ``tol`` absorbs floating-point noise in swept grid values.
        """
        return bool(self.all_saturated.any()) and (
            self.low - tol <= vcm <= self.high + tol
        )


def icmr_sweep(
    circuit: Circuit,
    vcm_sources: Sequence[str],
    vcm_values: Iterable[float],
    monitored_devices: Sequence[str] | None = None,
) -> ICMRResult:
    """Sweep the common-mode input voltage and record device saturation.

    ``vcm_sources`` are the names of the input voltage sources whose DC value
    is set to each swept Vcm.  A design's ICMR is the contiguous range where
    every monitored MOSFET (default: all of them) stays saturated.
    """
    values = np.asarray(list(vcm_values), dtype=float)
    monitored = list(monitored_devices) if monitored_devices else [m.name for m in circuit.mosfets]
    all_saturated = np.zeros(len(values), dtype=bool)
    converged = np.zeros(len(values), dtype=bool)
    work = circuit.copy()
    guess: dict[str, float] | None = None
    for k, vcm in enumerate(values):
        for source_name in vcm_sources:
            work.vsource(source_name).dc = float(vcm)
        try:
            solution = solve_dc(work, initial_guess=guess)
        except ConvergenceError:
            continue
        converged[k] = True
        guess = solution.node_voltages  # warm start for the next point
        all_saturated[k] = all(solution.op(name).saturated for name in monitored)
    return ICMRResult(vcm_values=values, all_saturated=all_saturated, converged=converged)


def dc_transfer_sweep(
    circuit: Circuit,
    source_name: str,
    values: Iterable[float],
    observe_node: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep one voltage source and observe a node voltage (warm-started)."""
    sweep_values = np.asarray(list(values), dtype=float)
    observed = np.full(len(sweep_values), np.nan)
    work = circuit.copy()
    guess: dict[str, float] | None = None
    for k, value in enumerate(sweep_values):
        work.vsource(source_name).dc = float(value)
        try:
            solution = solve_dc(work, initial_guess=guess)
        except ConvergenceError:
            continue
        guess = solution.node_voltages
        observed[k] = solution.voltage(observe_node)
    return sweep_values, observed
