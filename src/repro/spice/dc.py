"""Nonlinear DC operating-point solver (Newton-Raphson on MNA).

This is the substrate that stands in for the Spectre/SPICE operating-point
analyses used throughout the paper (dataset generation, LUT
characterization, verification).  It builds the standard modified nodal
analysis (MNA) system

* one KCL residual per non-ground node,
* one branch-current unknown plus one voltage constraint per independent
  voltage source,

and solves ``f(x) = 0`` with damped Newton iterations.  Convergence
robustness comes from three stacked strategies, tried in order:

1. plain damped Newton from the initial guess,
2. gmin stepping (a large conductance to ground is ramped down decade by
   decade), and
3. source stepping (supplies ramped from 0 to full value).

These are the same continuation tricks production SPICE engines use.

There is one implementation: :func:`solve_dc_many` runs every strategy
vectorized over the candidates of one circuit structure, and
:func:`solve_dc` is a batch of one.  The scalar reference the parity
tests pin it against lives in ``tests/scalar_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..devices import EKVModel, OperatingPoint
from . import linsolve
from .netlist import GROUND, Circuit

__all__ = ["DCSolution", "ConvergenceError", "solve_dc", "solve_dc_many"]

#: Shunt conductance to ground added at every node for conditioning (S).
GMIN = 1e-12

#: Maximum allowed Newton voltage update per iteration (V).
MAX_STEP = 0.5


class ConvergenceError(RuntimeError):
    """Raised when all DC continuation strategies fail to converge."""


@dataclass
class DCSolution:
    """Result of a DC operating-point solve."""

    circuit: Circuit
    node_voltages: dict[str, float]
    source_currents: dict[str, float]
    iterations: int
    strategy: str
    operating_points: dict[str, OperatingPoint] = field(default_factory=dict)

    def voltage(self, node: str) -> float:
        """Voltage of ``node`` (ground is always 0 V)."""
        if node == GROUND:
            return 0.0
        return self.node_voltages[node]

    def op(self, mosfet_name: str) -> OperatingPoint:
        """Operating point of the named MOSFET."""
        return self.operating_points[mosfet_name]

    def kcl_residual(self) -> float:
        """Max KCL residual (A) over all nodes -- a correctness self-check."""
        system = _MNASystem(self.circuit)
        x = system.pack(self.node_voltages, self.source_currents)
        residual, _ = _residual_and_jacobian_batch(
            system, _BatchStamps([self.circuit]), x[None, :], 1.0, GMIN
        )
        return float(np.max(np.abs(residual[0, : system.n_nodes]), initial=0.0))


class _MNASystem:
    """Assembles residual and Jacobian of the nonlinear MNA equations."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.node_names = circuit.nodes()
        self.n_nodes = len(self.node_names)
        self.n_sources = len(circuit.vsources)
        self.size = self.n_nodes + self.n_sources
        self._index = {name: i for i, name in enumerate(self.node_names)}

    # ------------------------------------------------------------------
    def node_index(self, name: str) -> int | None:
        """Index of a node in the unknown vector; ``None`` for ground."""
        if name == GROUND:
            return None
        return self._index[name]

    def pack(
        self, voltages: dict[str, float], currents: dict[str, float]
    ) -> np.ndarray:
        x = np.zeros(self.size)
        for name, idx in self._index.items():
            x[idx] = voltages.get(name, 0.0)
        for k, source in enumerate(self.circuit.vsources):
            x[self.n_nodes + k] = currents.get(source.name, 0.0)
        return x

    def unpack(self, x: np.ndarray) -> tuple[dict[str, float], dict[str, float]]:
        voltages = {name: float(x[idx]) for name, idx in self._index.items()}
        currents = {
            source.name: float(x[self.n_nodes + k])
            for k, source in enumerate(self.circuit.vsources)
        }
        return voltages, currents


def _default_guess(system: _MNASystem) -> np.ndarray:
    """Heuristic starting point: source nodes pinned, others at mid-rail."""
    circuit = system.circuit
    supply = max((abs(src.dc) for src in circuit.vsources), default=1.0)
    x = np.full(system.size, 0.0)
    x[: system.n_nodes] = supply / 2.0
    for src in circuit.vsources:
        ip = system.node_index(src.pos)
        in_ = system.node_index(src.neg)
        if ip is not None and in_ is None:
            x[ip] = src.dc
        elif ip is None and in_ is not None:
            x[in_] = -src.dc
    return x


def solve_dc(
    circuit: Circuit,
    initial_guess: dict[str, float] | None = None,
    max_iterations: int = 150,
) -> DCSolution:
    """Solve the DC operating point of ``circuit``: a batch of one of
    :func:`solve_dc_many`.

    Parameters
    ----------
    circuit:
        The netlist to solve.
    initial_guess:
        Optional mapping from node name to starting voltage; unknown nodes
        fall back to the built-in heuristic.
    max_iterations:
        Newton iteration cap per continuation stage.

    Raises
    ------
    ConvergenceError
        If plain Newton, gmin stepping and source stepping all fail.
    """
    outcome = solve_dc_many([circuit], initial_guess, max_iterations)[0]
    if isinstance(outcome, ConvergenceError):
        raise outcome
    return outcome


def _initial_point(
    system: _MNASystem, initial_guess: dict[str, float] | None
) -> np.ndarray:
    """Starting vector: heuristic guess overridden by the caller's hints."""
    x0 = _default_guess(system)
    if initial_guess:
        for name, value in initial_guess.items():
            idx = system.node_index(name)
            if idx is not None:
                x0[idx] = value
    return x0


def solve_dc_many(  # checks: hot-path
    circuits: list,
    initial_guess: dict[str, float] | Sequence[dict[str, float] | None] | None = None,
    max_iterations: int = 150,
) -> list:
    """Solve the DC operating point of many structurally similar circuits.

    The one DC solver: circuits that share one MNA structure (same nodes
    and element connectivity -- exactly what one topology's ``build``
    produces over a population of width vectors, including the same
    population rebuilt at several PVT corners) run every Newton stage
    *together*, with the residual/Jacobian assembly vectorized over the
    candidate axis and one stacked ``np.linalg.solve`` per iteration.
    Candidates of one group may differ in MOSFET widths, MOSFET
    technology parameters (corner-skewed ``vt0``/``kp``/``ut``) and
    voltage-source DC values (corner-scaled supplies).  Every
    per-candidate floating-point operation is elementwise, so each
    solution is bit-identical to the scalar reference solve of that
    circuit alone, whatever else shares its batch (the parity tests pin
    this).

    ``initial_guess`` is either one mapping shared by every candidate or a
    sequence of per-candidate mappings aligned with ``circuits`` (the
    corner path uses this: each corner pins the supply node at its own
    scaled rail).

    Failures are isolated per candidate: the candidates plain Newton
    leaves unconverged go on to gmin stepping and then source stepping,
    and a candidate that every strategy fails holds a
    :class:`ConvergenceError` in its slot instead of a
    :class:`DCSolution` -- one bad design never aborts the batch.

    Returns a list aligned with ``circuits`` whose entries are either
    :class:`DCSolution` or :class:`ConvergenceError`.
    """
    guesses = _per_candidate_guesses(initial_guess, len(circuits))
    results: list = [None] * len(circuits)
    groups: dict = {}
    for index, circuit in enumerate(circuits):
        groups.setdefault(_structure_key(circuit), []).append(index)
    for indices in groups.values():
        batch = [circuits[i] for i in indices]
        batch_guesses = [guesses[i] for i in indices]
        for i, outcome in zip(indices, _solve_batch(batch, batch_guesses, max_iterations), strict=True):
            results[i] = outcome
    return results


def _per_candidate_guesses(initial_guess, count: int) -> list:
    """Normalize the ``initial_guess`` argument to one entry per circuit."""
    if initial_guess is None or isinstance(initial_guess, dict):
        return [initial_guess] * count
    guesses = list(initial_guess)
    if len(guesses) != count:
        raise ValueError(
            f"initial_guess sequence has {len(guesses)} entries for {count} circuits"
        )
    return guesses


def _structure_key(circuit: Circuit):
    """Hashable MNA-structure signature.

    Everything the vectorized assembly cannot express per candidate goes
    into the key; widths, MOSFET technology parameters and voltage-source
    DC values are deliberately *excluded* so one population evaluated at
    several PVT corners still forms a single batch (the corner axis stacks
    into the candidate axis).  Device polarity stays in the key: the
    assembly treats it as a per-slot scalar.
    """
    return (
        tuple(circuit.nodes()),
        tuple((r.node1, r.node2, r.resistance) for r in circuit.resistors),
        tuple((s.pos, s.neg, s.dc) for s in circuit.isources),
        tuple((s.pos, s.neg) for s in circuit.vsources),
        tuple(
            (m.name, m.drain, m.gate, m.source, m.tech.polarity, m.length)
            for m in circuit.mosfets
        ),
    )


class _ArrayTech:
    """Per-candidate technology parameters for one MOSFET slot.

    Duck-types the :class:`~repro.devices.TechParams` fields the EKV DC
    path reads (``vt0``/``n_slope``/``kp``/``ut``/``lambda_l`` plus
    :meth:`spec_current`) with numpy arrays over the candidate axis, so
    :class:`~repro.devices.EKVModel` evaluates a whole corner-mixed batch
    in one broadcasted sweep.  Elementwise ufuncs make each candidate's
    result bit-identical to the scalar-tech evaluation.
    """

    __slots__ = ("vt0", "n_slope", "kp", "ut", "lambda_l")

    def __init__(self, vt0, n_slope, kp, ut, lambda_l):
        self.vt0 = vt0
        self.n_slope = n_slope
        self.kp = kp
        self.ut = ut
        self.lambda_l = lambda_l

    @classmethod
    def from_techs(cls, techs) -> _ArrayTech:
        return cls(
            vt0=np.array([t.vt0 for t in techs]),
            n_slope=np.array([t.n_slope for t in techs]),
            kp=np.array([t.kp for t in techs]),
            ut=np.array([t.ut for t in techs]),
            lambda_l=np.array([t.lambda_l for t in techs]),
        )

    def take(self, indices: np.ndarray) -> _ArrayTech:
        return _ArrayTech(
            self.vt0[indices],
            self.n_slope[indices],
            self.kp[indices],
            self.ut[indices],
            self.lambda_l[indices],
        )

    def spec_current(self, width, length):
        # Mirrors TechParams.spec_current arithmetic without the scalar
        # validation (widths were validated when the circuits were built).
        return 2.0 * self.n_slope * self.kp * (width / length) * self.ut**2


class _BatchStamps:
    """Per-candidate element data of one structure-sharing batch.

    Holds, for each MOSFET slot, the width vector and the evaluation model
    (a plain shared :class:`EKVModel` when every candidate uses the same
    technology parameters -- the pre-corner fast path -- or an
    :class:`_ArrayTech`-backed model when the batch mixes corners), and for
    each voltage source its DC value (scalar when shared, array when
    corner-scaled supplies differ).
    """

    __slots__ = ("slot_widths", "slot_models", "slot_polarity", "vsource_dc")

    def __init__(self, circuits: list):
        first = circuits[0]
        self.slot_widths = [
            np.array([circuit.mosfets[slot].width for circuit in circuits])
            for slot in range(len(first.mosfets))
        ]
        self.slot_models = []
        self.slot_polarity = []
        for slot, mosfet in enumerate(first.mosfets):
            self.slot_polarity.append(mosfet.tech.polarity)
            techs = [circuit.mosfets[slot].tech for circuit in circuits]
            if all(tech == techs[0] for tech in techs[1:]):
                self.slot_models.append(mosfet.model)
            else:
                self.slot_models.append(EKVModel(_ArrayTech.from_techs(techs)))
        self.vsource_dc = []
        for k, source in enumerate(first.vsources):
            values = [circuit.vsources[k].dc for circuit in circuits]
            if all(value == values[0] for value in values[1:]):
                self.vsource_dc.append(source.dc)
            else:
                self.vsource_dc.append(np.array(values))

    def take(self, indices: np.ndarray) -> _BatchStamps:
        subset = _BatchStamps.__new__(_BatchStamps)
        subset.slot_widths = [w[indices] for w in self.slot_widths]
        subset.slot_polarity = self.slot_polarity
        subset.slot_models = [
            EKVModel(model.tech.take(indices))
            if isinstance(model.tech, _ArrayTech)
            else model
            for model in self.slot_models
        ]
        subset.vsource_dc = [
            dc[indices] if isinstance(dc, np.ndarray) else dc for dc in self.vsource_dc
        ]
        return subset


#: The continuation strategies in the order they are tried: name, whether
#: it starts from zero rather than the initial point, and its Newton stages
#: as ``(source_scale, gmin)`` pairs, each starting where the last converged.
_STRATEGIES = (
    ("newton", False, ((1.0, GMIN),)),
    ("gmin-stepping", False, tuple((1.0, 10.0 ** (-e)) for e in range(3, 13))),
    ("source-stepping", True, tuple((float(s), GMIN) for s in np.linspace(0.1, 1.0, 10))),
)


def _solve_batch(circuits: list, guesses: list, max_iterations: int) -> list:
    """Solve one structure-sharing group; see :func:`solve_dc_many`.

    Each strategy runs on the candidates every earlier one left
    unconverged; its iteration count is the sum over its stages.
    """
    # Each candidate's own system: _initial_point reads its source values
    # (corner-scaled supplies differ) and _finalize its MOSFET instances.
    systems = [_MNASystem(circuit) for circuit in circuits]
    stamps = _BatchStamps(circuits)
    x0s = np.stack(
        [_initial_point(system, guess) for system, guess in zip(systems, guesses, strict=True)]
    )
    outcomes: list = [None] * len(circuits)
    pending = np.arange(len(circuits))
    for strategy, from_zero, stages in _STRATEGIES:
        if pending.size == 0:
            break
        x = np.zeros_like(x0s) if from_zero else x0s.copy()
        totals = np.zeros(len(circuits), dtype=int)
        alive = pending
        for source_scale, gmin in stages:
            solved, iterations, converged = _newton_batch(
                systems[0], stamps.take(alive), x[alive], source_scale, gmin, max_iterations
            )
            x[alive] = solved
            totals[alive] += iterations
            alive = alive[converged]
            if alive.size == 0:
                break
        for j in alive:
            outcomes[j] = _finalize(systems[j], x[j], int(totals[j]), strategy)
        pending = pending[~np.isin(pending, alive)]
    for j in pending:
        outcomes[j] = ConvergenceError(
            f"DC solve failed for circuit {circuits[j].name!r} with all strategies"
        )
    return outcomes


def _residual_and_jacobian_batch(
    system: _MNASystem,
    stamps: _BatchStamps,
    x: np.ndarray,
    source_scale: float,
    gmin: float,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual ``f(x)`` and Jacobian ``J(x)`` of a candidate group's MNA equations.

    ``x`` has shape ``(P, size)`` -- one unknown vector per candidate --
    and ``stamps`` carries the per-candidate widths, technology parameters
    and source values.  ``source_scale`` multiplies every independent
    source value (source stepping) and ``gmin`` is the shunt conductance
    to ground at each node.  Numpy ufuncs are elementwise, so each
    candidate's row is bit-identical to the scalar reference assembly of
    that candidate alone.

    ``out`` optionally supplies preallocated ``(f, jac)`` buffers of shape
    ``(P, size)`` / ``(P, size, size)``; they are zero-filled before
    assembly, so reuse across Newton iterations is bit-identical to fresh
    allocation.
    """
    circuit = system.circuit
    n = system.n_nodes
    batch = x.shape[0]
    if out is None:
        f = np.zeros((batch, system.size))
        jac = np.zeros((batch, system.size, system.size))
    else:
        f, jac = out
        f[:] = 0.0
        jac[:] = 0.0

    def volt(idx: int | None):
        return 0.0 if idx is None else x[:, idx]

    # gmin shunts keep floating subcircuits well-conditioned.
    if n:
        f[:, :n] += gmin * x[:, :n]
        diag = np.arange(n)
        jac[:, diag, diag] += gmin

    for res in circuit.resistors:
        i1, i2 = system.node_index(res.node1), system.node_index(res.node2)
        g = res.conductance
        current = g * (volt(i1) - volt(i2))
        if i1 is not None:
            f[:, i1] += current
            jac[:, i1, i1] += g
            if i2 is not None:
                jac[:, i1, i2] -= g
        if i2 is not None:
            f[:, i2] -= current
            jac[:, i2, i2] += g
            if i1 is not None:
                jac[:, i2, i1] -= g

    for src in circuit.isources:
        ip, in_ = system.node_index(src.pos), system.node_index(src.neg)
        value = src.dc * source_scale
        if ip is not None:
            f[:, ip] += value
        if in_ is not None:
            f[:, in_] -= value

    for slot, mosfet in enumerate(circuit.mosfets):
        id_, ig, is_ = (
            system.node_index(mosfet.drain),
            system.node_index(mosfet.gate),
            system.node_index(mosfet.source),
        )
        vd, vg, vs = volt(id_), volt(ig), volt(is_)
        widths = stamps.slot_widths[slot]
        model = stamps.slot_models[slot]
        pol = stamps.slot_polarity[slot]
        # Mirrors MOSFET.ids / MOSFET.conductances with width (and, for
        # corner-mixed batches, tech-parameter) vectors.
        vgs = pol * (vg - vs)
        vds = pol * (vd - vs)
        ids = pol * model.drain_current(vgs, vds, widths, mosfet.length)
        gm = model.transconductance(vgs, vds, widths, mosfet.length)
        gds = model.output_conductance(vgs, vds, widths, mosfet.length)
        # Current i_ds leaves the drain node and enters the source node.
        if id_ is not None:
            f[:, id_] += ids
            jac[:, id_, id_] += gds
            if ig is not None:
                jac[:, id_, ig] += gm
            if is_ is not None:
                jac[:, id_, is_] -= gm + gds
        if is_ is not None:
            f[:, is_] -= ids
            jac[:, is_, is_] += gm + gds
            if id_ is not None:
                jac[:, is_, id_] -= gds
            if ig is not None:
                jac[:, is_, ig] -= gm

    for k, src in enumerate(circuit.vsources):
        row = n + k
        ip, in_ = system.node_index(src.pos), system.node_index(src.neg)
        branch_current = x[:, row]
        # Branch current flows out of the positive node.
        if ip is not None:
            f[:, ip] += branch_current
            jac[:, ip, row] += 1.0
        if in_ is not None:
            f[:, in_] -= branch_current
            jac[:, in_, row] -= 1.0
        # ``dc`` is a scalar when the batch shares the value, an array over
        # candidates when supplies are corner-scaled.
        f[:, row] = volt(ip) - volt(in_) - stamps.vsource_dc[k] * source_scale
        if ip is not None:
            jac[:, row, ip] += 1.0
        if in_ is not None:
            jac[:, row, in_] -= 1.0

    return f, jac


def _solve_newton_steps(jac: np.ndarray, f: np.ndarray) -> np.ndarray:  # checks: hot-path
    """Newton steps ``J dx = -f`` of a ``(batch, size, size)`` stack through
    :func:`repro.spice.linsolve.solve_stacked`, with its per-item
    ``lstsq`` recovery; the DC and transient Newton loops share it."""
    return linsolve.solve_stacked(jac, -f)


def _newton_batch(  # checks: hot-path
    system: _MNASystem,
    stamps: _BatchStamps,
    x0s: np.ndarray,
    source_scale: float,
    gmin: float,
    max_iterations: int = 150,
    abstol: float = 1e-10,
    reltol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton over one candidate group; per-candidate convergence.

    ``x0s`` has shape ``(batch, size)`` -- one starting point per candidate.
    Candidates freeze the moment their own convergence criterion fires, so
    each trajectory is the candidate's own one-at-a-time Newton iteration,
    bit for bit.  Returns ``(solutions, iterations, converged)``.
    """
    n = system.n_nodes
    batch = x0s.shape[0]
    x = np.array(x0s, copy=True)
    solutions = np.array(x, copy=True)
    iterations = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    active = np.arange(batch)
    # Preallocated per-iteration workspace.  Assembly zero-fills the
    # sliced views, a gathered stamp subset carries the same values, and
    # the all-zero residual placeholder never changes -- so buffer reuse
    # is bit-identical to the former fresh allocation every iteration.
    active_stamps = stamps
    f_buf = np.zeros((batch, system.size))
    jac_buf = np.zeros((batch, system.size, system.size))
    zero_residual = np.zeros(batch)

    for iteration in range(1, max_iterations + 1):
        m = active.size
        f, jac = _residual_and_jacobian_batch(
            system, active_stamps, x[active], source_scale, gmin,
            out=(f_buf[:m], jac_buf[:m]),
        )
        dx = _solve_newton_steps(jac, f)
        # Voltage-step damping: scale each candidate's update so no node
        # moves more than MAX_STEP volts in one iteration.
        if n:
            v_step = np.max(np.abs(dx[:, :n]), axis=1)
            over = v_step > MAX_STEP
            if np.any(over):
                dx[over] *= (MAX_STEP / v_step[over])[:, None]
        x[active] += dx
        node_residual = (
            np.max(np.abs(f[:, :n]), axis=1) if n else zero_residual[:m]
        )
        done = (node_residual < abstol) & (np.max(np.abs(dx), axis=1, initial=0.0) < reltol)
        if np.any(done):
            newly = active[done]
            solutions[newly] = x[newly]
            iterations[newly] = iteration
            converged[newly] = True
            active = active[~done]
            if active.size == 0:
                break
            # Re-gather stamps only when the active set shrinks.
            active_stamps = stamps.take(active)
    return solutions, iterations, converged


def _finalize(system: _MNASystem, x: np.ndarray, iterations: int, strategy: str) -> DCSolution:
    voltages, currents = system.unpack(x)

    def volt(node: str) -> float:
        return 0.0 if node == GROUND else voltages[node]

    ops = {
        mosfet.name: mosfet.operating_point(
            volt(mosfet.drain), volt(mosfet.gate), volt(mosfet.source)
        )
        for mosfet in system.circuit.mosfets
    }
    return DCSolution(
        circuit=system.circuit,
        node_voltages=voltages,
        source_currents=currents,
        iterations=iterations,
        strategy=strategy,
        operating_points=ops,
    )
