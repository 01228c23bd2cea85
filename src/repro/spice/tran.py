"""Nonlinear transient analysis (step response) on the MNA system.

This is the time-domain leg of the SPICE substrate: the serving stack's
slew-rate / settling-time / overshoot specs are measured on the step
response computed here.  The formulation reuses the DC machinery of
:mod:`repro.spice.dc` wholesale:

* the resistive part of the residual/Jacobian at every time point is the
  *same* EKV MNA assembly the DC solver stamps
  (:func:`repro.spice.dc._residual_and_jacobian_batch`), so device
  physics exists in exactly one place;
* capacitive elements -- explicit capacitors plus each MOSFET's
  operating-point ``Cgs``/``Cds`` (the same linearization the AC analysis
  stamps) -- are discretized with backward-Euler or trapezoidal
  companion models and solved with damped Newton at every time step.

The testbench is a *step*: the simulation starts from a converged DC
operating point (capacitor currents are zero -- a consistent initial
condition) and at ``t = 0+`` every independent source jumps by
``step_amplitude`` times its AC magnitude, so the transient excites
exactly the port the AC analysis drives (for the OTA testbenches: a
differential input step of ``step_amplitude`` volts).

There is one implementation, :func:`run_tran_many`: solutions whose
(stepped) circuits share one MNA structure -- one topology's population
of width vectors, including the same population rebuilt at several PVT
corners (the corner-skewed technology parameters ride the
:class:`~repro.spice.dc._ArrayTech` path) -- integrate *together*, with
the per-step Newton iterations vectorized over the candidate axis and
one stacked ``np.linalg.solve`` per iteration.  :func:`run_tran` is a
batch of one.  Every per-candidate floating-point operation is
elementwise, so each waveform is bit-identical to the scalar reference
in ``tests/scalar_reference.py`` run on that candidate alone (pinned by
the parity tests), and failures are isolated per candidate: a design
whose Newton diverges at some time step holds a
:class:`~repro.spice.dc.ConvergenceError` in its slot instead of
aborting the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dc import (
    GMIN,
    MAX_STEP,
    ConvergenceError,
    DCSolution,
    _BatchStamps,
    _MNASystem,
    _residual_and_jacobian_batch,
    _solve_newton_steps,
    _structure_key,
)
from .netlist import GROUND, Circuit

__all__ = ["TranResult", "run_tran", "run_tran_many", "step_sources"]

#: Supported integration methods: backward-Euler and trapezoidal.
METHODS = ("be", "trap")

#: Newton iteration cap per time step (steps are small, so this is ample).
MAX_TRAN_ITERATIONS = 50

#: Default differential step amplitude (V).  Small enough that the OTA
#: stays near its linearization (settling is well defined), large enough
#: that the output excursion dominates float noise.
DEFAULT_STEP_AMPLITUDE = 1e-3


@dataclass
class TranResult:
    """Step response of every node voltage.

    ``waveforms`` has shape ``(n_times, n_nodes)`` in the order of
    ``node_names``; ground is implicit (always 0).  ``times[0]`` is 0 and
    holds the pre-step DC operating point.
    """

    times: np.ndarray
    node_names: list[str]
    waveforms: np.ndarray
    method: str
    step_amplitude: float
    newton_iterations: int

    def __post_init__(self) -> None:
        self._node_index = {name: i for i, name in enumerate(self.node_names)}

    def voltage(self, node: str) -> np.ndarray:
        """Voltage waveform of ``node`` versus time."""
        if node == GROUND:
            return np.zeros_like(self.times)
        try:
            idx = self._node_index[node]
        except KeyError:
            raise ValueError(f"{node!r} is not a node of this transient result") from None
        return self.waveforms[:, idx]


def step_sources(circuit: Circuit, amplitude: float) -> Circuit:
    """The post-step netlist: every source jumps by ``amplitude * ac``.

    Supplies and bias sources carry ``ac = 0`` and stay put; the stimulus
    sources (the OTA testbenches drive ``ac = +-0.5`` on the differential
    inputs) step by their share of the amplitude.  The copy leaves the
    original circuit untouched.
    """
    stepped = circuit.copy()
    for source in stepped.vsources:
        source.dc = source.dc + amplitude * source.ac
    for source in stepped.isources:
        source.dc = source.dc + amplitude * source.ac
    return stepped


# ----------------------------------------------------------------------
# Capacitive elements (companion-model data)
# ----------------------------------------------------------------------
def _cap_elements(system: _MNASystem, solution: DCSolution) -> list:
    """Capacitive two-terminal elements as ``(i1, i2, c)`` index triples.

    Explicit capacitors keep their netlist value; each MOSFET contributes
    its operating-point ``Cgs`` (gate-source) and ``Cds`` (drain-source),
    the same linearization the AC analysis stamps.  Order is fixed
    (capacitors, then per-MOSFET gs/ds), so every candidate of a batch
    stamps its elements in the same slots.
    """
    circuit = solution.circuit
    elements = []
    for cap in circuit.capacitors:
        elements.append(
            (system.node_index(cap.node1), system.node_index(cap.node2), cap.capacitance)
        )
    for mosfet in circuit.mosfets:
        small = solution.op(mosfet.name).small_signal
        gate = system.node_index(mosfet.gate)
        drain = system.node_index(mosfet.drain)
        source = system.node_index(mosfet.source)
        elements.append((gate, source, small.cgs))
        elements.append((drain, source, small.cds))
    return elements


def _cap_elements_batch(system: _MNASystem, solutions: list) -> list:
    """:func:`_cap_elements` over a candidate batch: ``c`` is a vector
    over the candidate axis."""
    per_candidate = [_cap_elements(system, solution) for solution in solutions]
    elements = []
    for e, (i1, i2, _) in enumerate(per_candidate[0]):
        values = np.array([caps[e][2] for caps in per_candidate])
        elements.append((i1, i2, values))
    return elements


def _dv(x: np.ndarray, i1: int | None, i2: int | None):
    """Branch voltage ``v(i1) - v(i2)`` with ground as implicit zero.

    Works on a flat unknown vector and on a ``(P, size)`` stack (where it
    returns a per-candidate vector).
    """
    v1 = 0.0 if i1 is None else x[..., i1]
    v2 = 0.0 if i2 is None else x[..., i2]
    return v1 - v2


def _step_coef(method: str, dt: float, step: int) -> float:
    """Companion-model conductance factor of one time step.

    The trapezoidal rule takes its *first* step with backward-Euler: the
    source step at ``t = 0+`` makes the capacitor currents jump, so the
    zero-current steady-state history would otherwise seed the trap
    recursion with the pre-step value (the classic trap startup
    artifact).  The history update formula is the same for both
    coefficients, so the BE step also initializes ``hist`` correctly.
    """
    if method == "be" or (method == "trap" and step == 1):
        return 1.0 / dt
    if method == "trap":
        return 2.0 / dt
    raise ValueError(f"unknown integration method {method!r} (known: {', '.join(METHODS)})")


def run_tran(
    solution: DCSolution,
    t_stop: float,
    n_steps: int = 160,
    method: str = "trap",
    step_amplitude: float = DEFAULT_STEP_AMPLITUDE,
    max_newton_iterations: int = MAX_TRAN_ITERATIONS,
) -> TranResult:
    """Integrate the step response of a solved circuit over ``[0, t_stop]``:
    a batch of one of :func:`run_tran_many`.

    Parameters
    ----------
    solution:
        Converged DC operating point (:func:`repro.spice.dc.solve_dc`);
        it is the initial condition and carries the per-device
        linearized capacitances.
    t_stop:
        Simulation end time (s).
    n_steps:
        Number of uniform time steps (``n_steps + 1`` samples including
        ``t = 0``).
    method:
        ``"trap"`` (trapezoidal, second order, the default) or ``"be"``
        (backward-Euler, first order, heavily damped).
    step_amplitude:
        Source step scale: every source jumps by ``step_amplitude * ac``
        at ``t = 0+`` (see :func:`step_sources`).
    max_newton_iterations:
        Newton cap per time step.

    Raises
    ------
    ConvergenceError
        If any time step's Newton iteration fails to converge.
    """
    outcome = run_tran_many(
        [solution], t_stop, n_steps, method, step_amplitude, max_newton_iterations
    )[0]
    if isinstance(outcome, ConvergenceError):
        raise outcome
    return outcome


def _grid(method: str, t_stop: float, n_steps: int) -> tuple[float, np.ndarray]:
    """Validate the request and build ``(dt, time grid)``."""
    if method not in METHODS:
        raise ValueError(
            f"unknown integration method {method!r} (known: {', '.join(METHODS)})"
        )
    if t_stop <= 0:
        raise ValueError(f"t_stop must be positive, got {t_stop}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    dt = t_stop / n_steps
    return dt, np.linspace(0.0, t_stop, n_steps + 1)


def _tran_structure_key(circuit: Circuit):
    """Transient grouping key: DC structure plus capacitor connectivity.

    Capacitors are open circuits at DC and deliberately absent from
    :func:`repro.spice.dc._structure_key`, but the companion-model stamps
    align capacitor *slots* across a batch, so circuits differing in
    capacitor count or connectivity must never share a group.
    Capacitance values stay out of the key: they are per-candidate data
    (``_cap_elements_batch`` vectorizes them), exactly like widths.
    """
    return (
        _structure_key(circuit),
        tuple((cap.node1, cap.node2) for cap in circuit.capacitors),
    )


def run_tran_many(  # checks: hot-path
    solutions: list,
    t_stop: float,
    n_steps: int = 160,
    method: str = "trap",
    step_amplitude: float = DEFAULT_STEP_AMPLITUDE,
    max_newton_iterations: int = MAX_TRAN_ITERATIONS,
) -> list:
    """Integrate the step responses of many operating points together.

    Solutions whose stepped circuits share one MNA structure (one
    topology's candidate population, corner-mixed batches included -- the
    structure key is the corner-agnostic one of
    :func:`repro.spice.dc.solve_dc_many`) run every time step's Newton
    iteration *together*, with vectorized assembly and one stacked linear
    solve per iteration.  Each waveform is bit-identical to the scalar
    reference run on that candidate alone (pinned by the parity tests).

    Returns a list aligned with ``solutions`` whose entries are either
    :class:`TranResult` or :class:`ConvergenceError` (per-candidate
    failure isolation: one diverging design never aborts the batch).
    """
    dt, times = _grid(method, t_stop, n_steps)
    results: list = [None] * len(solutions)
    stepped = [step_sources(solution.circuit, step_amplitude) for solution in solutions]
    groups: dict = {}
    for index, circuit in enumerate(stepped):
        groups.setdefault(_tran_structure_key(circuit), []).append(index)
    for indices in groups.values():
        batch_solutions = [solutions[i] for i in indices]
        batch_stepped = [stepped[i] for i in indices]
        outcomes = _tran_batch(
            batch_solutions,
            batch_stepped,
            times,
            dt,
            method,
            step_amplitude,
            max_newton_iterations,
        )
        for i, outcome in zip(indices, outcomes, strict=True):
            results[i] = outcome
    return results


def _stamp_caps_batch(  # checks: hot-path
    f: np.ndarray,
    jac: np.ndarray,
    caps: list,
    x: np.ndarray,
    x_prev: np.ndarray,
    hist: np.ndarray,
    coef: float,
) -> None:
    """Stamp the capacitor companion models of one time step into ``f``/``jac``.

    The companion current of element ``e`` is
    ``i = coef * C * (dv - dv_prev) - hist[e]``, where ``hist`` is zero
    for backward-Euler and the previous step's capacitor current for the
    trapezoidal rule.  ``x``/``x_prev`` have shape ``(P, size)``, ``hist``
    is ``(P, E)`` and every element's capacitance is a per-candidate
    vector.
    """
    for e, (i1, i2, c) in enumerate(caps):
        g = coef * c
        current = g * (_dv(x, i1, i2) - _dv(x_prev, i1, i2)) - hist[:, e]
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


def _tran_newton_batch(  # checks: hot-path
    system: _MNASystem,
    stamps: _BatchStamps,
    caps: list,
    x_prev: np.ndarray,
    hist: np.ndarray,
    coef: float,
    max_iterations: int,
    abstol: float = 1e-10,
    reltol: float = 1e-9,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One time step's damped Newton over a candidate batch.

    Mirrors :func:`repro.spice.dc._newton_batch`: candidates freeze the
    moment their own convergence criterion fires, so each trajectory is
    the candidate's own one-at-a-time Newton iteration, bit for bit.
    Returns ``(solutions, iterations, converged)``.

    ``work`` optionally carries preallocated ``(f, jac)`` buffers with
    leading dimension >= ``batch`` (the time-step driver shares one pair
    across every step); assembly zero-fills the sliced views, so reuse
    is bit-identical to fresh allocation.
    """
    n = system.n_nodes
    batch = x_prev.shape[0]
    x = np.array(x_prev, copy=True)
    solutions = np.array(x, copy=True)
    iterations = np.zeros(batch, dtype=int)
    converged = np.zeros(batch, dtype=bool)
    active = np.arange(batch)
    # Preallocated per-iteration workspace; stamp/cap subsets are only
    # re-gathered when the active set shrinks (gathered values are
    # identical, so this is bit-identical to gathering every iteration).
    active_stamps = stamps
    active_caps = caps
    if work is None:
        f_buf = np.zeros((batch, system.size))
        jac_buf = np.zeros((batch, system.size, system.size))
    else:
        f_buf, jac_buf = work
    zero_residual = np.zeros(batch)

    for iteration in range(1, max_iterations + 1):
        m = active.size
        f, jac = _residual_and_jacobian_batch(
            system, active_stamps, x[active], 1.0, GMIN,
            out=(f_buf[:m], jac_buf[:m]),
        )
        _stamp_caps_batch(
            f, jac, active_caps, x[active], x_prev[active], hist[active], coef
        )
        dx = _solve_newton_steps(jac, f)
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
            active_stamps = stamps.take(active)
            active_caps = [(i1, i2, c[active]) for i1, i2, c in caps]
    return solutions, iterations, converged


def _tran_batch(  # checks: hot-path
    solutions: list,
    stepped: list,
    times: np.ndarray,
    dt: float,
    method: str,
    step_amplitude: float,
    max_newton_iterations: int,
) -> list:
    """Integrate one structure-sharing group; see :func:`run_tran_many`."""
    system = _MNASystem(stepped[0])
    stamps = _BatchStamps(stepped)
    caps = _cap_elements_batch(system, solutions)
    batch = len(solutions)
    n_steps = len(times) - 1
    x = np.stack(
        [
            system.pack(solution.node_voltages, solution.source_currents)
            for solution in solutions
        ]
    )
    waveforms = np.empty((batch, n_steps + 1, system.n_nodes))
    waveforms[:, 0, :] = x[:, : system.n_nodes]
    hist = np.zeros((batch, len(caps)))
    newton_totals = np.zeros(batch, dtype=int)
    alive = np.ones(batch, dtype=bool)
    # Hoisted out of the time-step loop: the stamp/cap subsets change
    # only when a candidate diverges, and the Newton work buffers are
    # shared across every step (zero-filled per iteration inside the
    # solver, so reuse is bit-identical to fresh allocation).
    active = np.nonzero(alive)[0]
    active_stamps = stamps
    active_caps = caps
    f_buf = np.zeros((batch, system.size))
    jac_buf = np.zeros((batch, system.size, system.size))

    for step in range(1, n_steps + 1):
        if active.size == 0:
            break
        coef = _step_coef(method, dt, step)
        x_new, iterations, converged = _tran_newton_batch(
            system,
            active_stamps,
            active_caps,
            x[active],
            hist[active],
            coef,
            max_newton_iterations,
            work=(f_buf, jac_buf),
        )
        newton_totals[active] += iterations
        diverged = active[~converged]
        survivors = active[converged]
        if method == "trap":
            for e, (i1, i2, c) in enumerate(caps):
                dv_new = _dv(x_new, i1, i2)
                dv_old = _dv(x[active], i1, i2)
                updated = coef * c[active] * (dv_new - dv_old) - hist[active, e]
                hist[survivors, e] = updated[converged]
        x[survivors] = x_new[converged]
        waveforms[survivors, step, :] = x_new[converged][:, : system.n_nodes]
        if diverged.size:
            alive[diverged] = False
            active = survivors
            if active.size:
                active_stamps = stamps.take(active)
                active_caps = [(i1, i2, c[active]) for i1, i2, c in caps]

    outcomes: list = []
    for j in range(batch):
        if alive[j]:
            outcomes.append(
                TranResult(
                    times=times,
                    node_names=system.node_names,
                    waveforms=waveforms[j].copy(),
                    method=method,
                    step_amplitude=step_amplitude,
                    newton_iterations=int(newton_totals[j]),
                )
            )
        else:
            outcomes.append(
                ConvergenceError(
                    f"transient Newton failed after {max_newton_iterations} iterations"
                )
            )
    return outcomes
