"""Small-signal AC analysis on the linearized circuit.

After a DC solve, every MOSFET is replaced by its four-element small-signal
model -- exactly the parameter set the paper's LUT stores and its DP-SFG
uses (Sec. II-B, III-B):

* a VCCS ``gm * (vg - vs)`` from drain to source,
* an output conductance ``gds`` between drain and source,
* ``Cgs`` between gate and source, and
* ``Cds`` between drain and source.

The complex MNA system ``Y(jw) x = b`` is then solved over a frequency
grid.  Independent sources contribute through their ``ac`` magnitudes
(supplies and bias sources have ``ac = 0`` and act as small-signal
grounds).

There is one implementation: :func:`run_ac_many` groups the operating
points by circuit structure with the key the DC and transient analyses
use, and each group's :class:`~repro.spice.plan.StampPlan` -- the same
compiled structure those analyses run on -- assembles every candidate's
``G`` and ``C`` with whole-batch array operations, in the scalar
reference's element order.  Each group's ``Y(jw)`` over the frequency
grid is one stacked complex solve, and :func:`run_ac` is a batch of
one.  The scalar reference the parity tests pin it against, which
shares no assembly code with this module, lives in
``tests/scalar_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .dc import DCSolution
from .netlist import GROUND
from .plan import StampPlan, structure_groups

__all__ = ["ACResult", "run_ac", "run_ac_many", "default_frequency_grid"]


def default_frequency_grid(
    f_start: float = 1.0, f_stop: float = 1e11, points_per_decade: int = 12
) -> np.ndarray:
    """Logarithmic frequency grid (Hz) covering the OTA metric range."""
    if f_start <= 0 or f_stop <= f_start:
        raise ValueError("need 0 < f_start < f_stop")
    decades = np.log10(f_stop / f_start)
    n_points = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), n_points)


@dataclass
class ACResult:
    """Frequency response of every node voltage.

    ``phasors`` has shape ``(n_freq, n_nodes)`` in the order of
    ``node_names``; ground is implicit (always 0).
    """

    frequencies: np.ndarray
    node_names: list[str]
    phasors: np.ndarray

    def __post_init__(self) -> None:
        # Name -> column map so transfer() is O(1) instead of a linear
        # scan of node_names on every call (metric extraction hits it in a
        # loop over output nodes and bulk paths hit it per candidate).
        self._node_index = {name: i for i, name in enumerate(self.node_names)}

    def transfer(self, node: str) -> np.ndarray:
        """Complex response of ``node`` versus frequency."""
        if node == GROUND:
            return np.zeros_like(self.frequencies, dtype=complex)
        try:
            idx = self._node_index[node]
        except KeyError:
            raise ValueError(f"{node!r} is not a node of this AC result") from None
        return self.phasors[:, idx]

    def magnitude_db(self, node: str) -> np.ndarray:
        """Magnitude response in dB (floors at -400 dB to avoid log(0))."""
        mag = np.abs(self.transfer(node))
        return 20.0 * np.log10(np.maximum(mag, 1e-20))


def run_ac(
    solution: DCSolution,
    frequencies: np.ndarray | None = None,
) -> ACResult:
    """Run a small-signal AC analysis at the given DC operating point: a
    batch of one of :func:`run_ac_many`.

    Parameters
    ----------
    solution:
        Result of :func:`repro.spice.dc.solve_dc`; it carries the linearized
        device parameters.
    frequencies:
        Frequency grid in Hz (defaults to :func:`default_frequency_grid`).
    """
    return run_ac_many([solution], frequencies)[0]


#: Candidates per stacked AC solve; bounds the transient ``Y`` stack to a
#: few tens of MB even for large populations and wide frequency grids.
_AC_CHUNK = 64

#: Complex elements allowed in one ``(chunk, freqs, size, size)`` stack
#: (~64 MB); large structures shrink the candidate chunk instead of
#: blowing up memory.  Chunking never changes values -- each matrix is
#: factorized independently either way.
_AC_STACK_BUDGET = 4_000_000


def run_ac_many(  # checks: hot-path
    solutions: list,
    frequencies: np.ndarray | None = None,
) -> list:
    """Run the AC analysis of many operating points in one stacked solve.

    Solutions whose circuits share one MNA structure (the key that also
    groups the DC and transient analyses,
    :func:`repro.spice.plan.structure_groups`) compile one
    :class:`~repro.spice.plan.StampPlan`, linearized at their operating
    points, which assembles every candidate's ``G`` and ``C`` with
    whole-batch array operations.  The group's ``Y(jw) = G + jw C`` stack,
    ``(candidates, frequencies, size, size)``, is factorized by one
    ``np.linalg.solve`` call per chunk.  LAPACK factorizes each matrix on
    its own and every matrix entry sums its terms in the scalar order, so
    the phasors are bit-identical to the scalar reference's per-candidate
    sweep (pinned by the parity tests).
    """
    freqs = default_frequency_grid() if frequencies is None else np.asarray(frequencies, dtype=float)
    results: list = [None] * len(solutions)
    omegas = 2.0 * np.pi * freqs
    for indices in structure_groups([solution.circuit for solution in solutions]):
        group = [solutions[i] for i in indices]
        plan = StampPlan([solution.circuit for solution in group], group)
        g_stack, c_stack = plan.small_signal_matrices()
        rhs = plan.ac_rhs
        size = plan.size
        chunk_size = max(
            1, min(_AC_CHUNK, _AC_STACK_BUDGET // max(1, len(freqs) * size * size))
        )
        for start in range(0, len(indices), chunk_size):
            stop = start + chunk_size
            # Y(jw) per candidate and frequency.
            y_stack = (
                g_stack[start:stop, None, :, :]
                + (1j * omegas)[None, :, None, None] * c_stack[start:stop, None, :, :]
            )
            solved = linsolve.solve_stacked(y_stack, np.broadcast_to(rhs, y_stack.shape[:3]))
            for i, phasors in zip(indices[start:stop], solved, strict=True):
                results[i] = ACResult(
                    frequencies=freqs,
                    node_names=plan.node_names,
                    phasors=phasors[:, : plan.n_nodes].copy(),
                )
    return results
