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

There is one implementation: :func:`run_ac_many` stacks every
candidate's ``Y(jw)`` over the frequency grid into one complex solve,
and :func:`run_ac` is a batch of one.  The scalar reference the parity
tests pin it against lives in ``tests/scalar_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .dc import DCSolution
from .netlist import GROUND, Circuit

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


class _ACSystem:
    """Builds the complex MNA matrices of the linearized circuit."""

    def __init__(self, solution: DCSolution):
        self.circuit: Circuit = solution.circuit
        self.solution = solution
        self.node_names = self.circuit.nodes()
        self.n_nodes = len(self.node_names)
        self.n_sources = len(self.circuit.vsources)
        self.size = self.n_nodes + self.n_sources
        self._index = {name: i for i, name in enumerate(self.node_names)}
        self._conductance, self._capacitance, self._rhs = self._assemble()

    def _node(self, name: str) -> int | None:
        return None if name == GROUND else self._index[name]

    def _assemble(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.n_nodes
        g_matrix = np.zeros((self.size, self.size))
        c_matrix = np.zeros((self.size, self.size))
        rhs = np.zeros(self.size, dtype=complex)

        def stamp_admittance(matrix: np.ndarray, i1: int | None, i2: int | None, value: float) -> None:
            if i1 is not None:
                matrix[i1, i1] += value
                if i2 is not None:
                    matrix[i1, i2] -= value
            if i2 is not None:
                matrix[i2, i2] += value
                if i1 is not None:
                    matrix[i2, i1] -= value

        def stamp_vccs(
            matrix: np.ndarray,
            out_pos: int | None,
            out_neg: int | None,
            ctrl_pos: int | None,
            ctrl_neg: int | None,
            gm: float,
        ) -> None:
            # Current gm*(v_ctrl_pos - v_ctrl_neg) flows out_pos -> out_neg.
            for out, sign_out in ((out_pos, 1.0), (out_neg, -1.0)):
                if out is None:
                    continue
                for ctrl, sign_ctrl in ((ctrl_pos, 1.0), (ctrl_neg, -1.0)):
                    if ctrl is None:
                        continue
                    matrix[out, ctrl] += sign_out * sign_ctrl * gm

        for res in self.circuit.resistors:
            stamp_admittance(
                g_matrix, self._node(res.node1), self._node(res.node2), res.conductance
            )
        for cap in self.circuit.capacitors:
            stamp_admittance(
                c_matrix, self._node(cap.node1), self._node(cap.node2), cap.capacitance
            )

        for mosfet in self.circuit.mosfets:
            op = self.solution.op(mosfet.name)
            small = op.small_signal
            drain = self._node(mosfet.drain)
            gate = self._node(mosfet.gate)
            source = self._node(mosfet.source)
            stamp_admittance(g_matrix, drain, source, small.gds)
            stamp_admittance(c_matrix, drain, source, small.cds)
            stamp_admittance(c_matrix, gate, source, small.cgs)
            stamp_vccs(g_matrix, drain, source, gate, source, small.gm)

        for src in self.circuit.isources:
            ip, in_ = self._node(src.pos), self._node(src.neg)
            if ip is not None:
                rhs[ip] -= src.ac
            if in_ is not None:
                rhs[in_] += src.ac

        for k, src in enumerate(self.circuit.vsources):
            row = n + k
            ip, in_ = self._node(src.pos), self._node(src.neg)
            if ip is not None:
                g_matrix[ip, row] += 1.0
                g_matrix[row, ip] += 1.0
            if in_ is not None:
                g_matrix[in_, row] -= 1.0
                g_matrix[row, in_] -= 1.0
            rhs[row] = src.ac

        return g_matrix, c_matrix, rhs


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

    All candidates' MNA systems of one shape are stacked into a single
    complex ``(candidates, frequencies, size, size)`` tensor and
    factorized by one ``np.linalg.solve`` call.  LAPACK factorizes each
    matrix on its own, so the phasors are bit-identical to the scalar
    reference's per-candidate sweep (pinned by the parity tests).

    ``solutions`` may mix circuit structures; candidates are grouped by
    system size and each group is solved together.
    """
    freqs = default_frequency_grid() if frequencies is None else np.asarray(frequencies, dtype=float)
    results: list = [None] * len(solutions)
    systems = [_ACSystem(solution) for solution in solutions]
    omegas = 2.0 * np.pi * freqs

    groups: dict[int, list[int]] = {}
    for index, system in enumerate(systems):
        groups.setdefault(system.size, []).append(index)

    for size, indices in groups.items():
        chunk_size = max(
            1, min(_AC_CHUNK, _AC_STACK_BUDGET // max(1, len(freqs) * size * size))
        )
        for start in range(0, len(indices), chunk_size):
            chunk = indices[start : start + chunk_size]
            g_stack = np.stack([systems[i]._conductance for i in chunk])
            c_stack = np.stack([systems[i]._capacitance for i in chunk])
            rhs_stack = np.stack([systems[i]._rhs for i in chunk])
            # Y(jw) per candidate and frequency.
            y_stack = g_stack[:, None, :, :] + (1j * omegas)[None, :, None, None] * c_stack[:, None, :, :]
            rhs = np.broadcast_to(rhs_stack[:, None, :], y_stack.shape[:3])
            solved = linsolve.solve_stacked(y_stack, rhs)
            for row, i in enumerate(chunk):
                system = systems[i]
                results[i] = ACResult(
                    frequencies=freqs,
                    node_names=system.node_names,
                    phasors=solved[row][:, : system.n_nodes].copy(),
                )
    return results
