"""Precomputed lookup tables (Fig. 5, Sec. III-D-1).

The LUT stores the vector-valued function of Eq. (3)::

    [Id gm gds Cds Cgs] = f(Vgs, Vds)     (per unit width)

characterized once per device type by a nested DC sweep of a reference-width
transistor (the paper: 65 nm, ``Wref = 700 nm``, 0-1.2 V in 60 mV steps).
Because every output varies linearly with width, storing per-unit-width
values lets any width be recovered by ratioing -- the gm/Id methodology.

As in the paper, the relatively coarse 60 mV grid is augmented with cubic
spline interpolation (``scipy.interpolate.RectBivariateSpline``) so queries
at intermediate bias points stay accurate.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.interpolate import RectBivariateSpline
from scipy.optimize import brentq

from ..devices import NMOS_65NM, PMOS_65NM, TechParams
from ..spice.sweep import CharacterizationResult, characterize_device

__all__ = ["LookupTable", "build_lut", "LUT_OUTPUTS"]

#: LUT output names in the Eq. (3) ordering.
LUT_OUTPUTS = ("id", "gm", "gds", "cds", "cgs")

ArrayLike = float | np.ndarray


class LookupTable:  # checks: process-shared
    """Spline-interpolated per-unit-width device tables for one device type.

    Marked ``process-shared``: the gm/Id tables travel with
    :class:`~repro.core.bundle.SizingModel` wherever a shard-worker
    factory carries one, so the fork-safety rule keeps them plain data
    (grids, tables, splines).
    """

    def __init__(self, characterization: CharacterizationResult):
        self.tech = characterization.tech
        self.length = characterization.length
        self.reference_width = characterization.reference_width
        self.vgs_grid = characterization.vgs_grid
        self.vds_grid = characterization.vds_grid
        self.tables = {name: np.asarray(table) for name, table in characterization.tables.items()}
        degree = 3 if len(self.vgs_grid) > 3 and len(self.vds_grid) > 3 else 1
        self._splines = {
            name: RectBivariateSpline(self.vgs_grid, self.vds_grid, table, kx=degree, ky=degree)
            for name, table in self.tables.items()
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, output: str, vgs: ArrayLike, vds: ArrayLike) -> np.ndarray:
        """Spline-interpolated per-unit-width value of one output."""
        if output not in self._splines:
            raise KeyError(f"unknown LUT output {output!r}; expected one of {LUT_OUTPUTS}")
        vgs_arr = np.asarray(vgs, dtype=float)
        vds_arr = np.asarray(vds, dtype=float)
        result = self._splines[output](vgs_arr, vds_arr, grid=False)
        return result

    def query_all(self, vgs: ArrayLike, vds: ArrayLike) -> dict[str, np.ndarray]:
        """All five outputs at once (per unit width)."""
        return {name: self.query(name, vgs, vds) for name in LUT_OUTPUTS}

    def gm_over_id(self, vgs: ArrayLike, vds: ArrayLike) -> np.ndarray:
        """The width-independent ``gm/Id`` ratio at a bias point (1/V)."""
        gm = self.query("gm", vgs, vds)
        id_ = self.query("id", vgs, vds)
        return gm / np.maximum(id_, 1e-30)

    # ------------------------------------------------------------------
    # gm/Id inversion (Algorithm 1, line 7)
    # ------------------------------------------------------------------
    def gm_id_range(self, vds: float) -> tuple[float, float]:
        """Achievable (min, max) gm/Id at the given ``Vds``.

        ``gm/Id`` decreases monotonically with ``Vgs``: the maximum sits at
        the lowest usable ``Vgs`` (deep weak inversion, ~``1/(n*Ut)``), the
        minimum at the top of the grid (strong inversion).
        """
        vgs_lo = float(self.vgs_grid[1])
        vgs_hi = float(self.vgs_grid[-1])
        return (
            float(self.gm_over_id(vgs_hi, vds)),
            float(self.gm_over_id(vgs_lo, vds)),
        )

    def find_vgs_for_gm_id(self, target: float, vds: float) -> float:
        """Find ``Vgs`` such that ``gm/Id(Vgs, Vds) == target`` (line 7).

        Targets outside the achievable range are clamped to the nearest
        endpoint (the paper's copilot loop then corrects residual error via
        the verification stage).
        """
        if target <= 0:
            raise ValueError(f"gm/Id target must be positive, got {target}")
        vgs_lo = float(self.vgs_grid[1])
        vgs_hi = float(self.vgs_grid[-1])
        low, high = self.gm_id_range(vds)
        if target >= high:
            return vgs_lo
        if target <= low:
            return vgs_hi

        def objective(vgs: float) -> float:
            return float(self.gm_over_id(vgs, vds)) - target

        return float(brentq(objective, vgs_lo, vgs_hi, xtol=1e-7))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Serialize the table (not the splines) to an ``.npz`` file."""
        payload = {
            "tech_name": np.array(self.tech.name),
            "length": np.array(self.length),
            "reference_width": np.array(self.reference_width),
            "vgs_grid": self.vgs_grid,
            "vds_grid": self.vds_grid,
        }
        for name, table in self.tables.items():
            payload[f"table_{name}"] = table
        np.savez(path, **payload)

    @classmethod
    def load(cls, path: str | Path) -> LookupTable:
        """Load a table saved by :meth:`save` (only the spline
        coefficients are computed)."""
        data = np.load(path)
        tech_name = str(data["tech_name"])
        tech = _TECH_BY_NAME.get(tech_name)
        if tech is None:
            raise ValueError(f"unknown technology {tech_name!r}")
        characterization = CharacterizationResult(
            tech=tech,
            length=float(data["length"]),
            reference_width=float(data["reference_width"]),
            vgs_grid=data["vgs_grid"],
            vds_grid=data["vds_grid"],
            tables={name: data[f"table_{name}"] for name in LUT_OUTPUTS},
        )
        return cls(characterization)


_TECH_BY_NAME = {NMOS_65NM.name: NMOS_65NM, PMOS_65NM.name: PMOS_65NM}


def build_lut(
    tech: TechParams,
    reference_width: float = 700e-9,
    length: float = 180e-9,
    step: float = 0.06,
    vmax: float = 1.2,
) -> LookupTable:
    """Characterize a device and wrap the result in a :class:`LookupTable`.

    The default grid matches the paper: 0 to 1.2 V in 60 mV steps.
    """
    grid = np.arange(0.0, vmax + 1e-9, step)
    characterization = characterize_device(
        tech,
        reference_width=reference_width,
        length=length,
        vgs_grid=grid,
        vds_grid=grid,
    )
    return LookupTable(characterization)
