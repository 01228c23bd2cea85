"""Nonlinear transient analysis (step response) on the MNA system.

This is the time-domain leg of the SPICE substrate: the serving stack's
slew-rate / settling-time / overshoot specs are measured on the step
response computed here.  The formulation reuses the DC machinery of
:mod:`repro.spice.dc` wholesale:

* the residual/Jacobian at every time point is the *same* compiled
  assembly the DC solver uses (:class:`repro.spice.plan.StampPlan`), and
  every time step is one call of the DC solver's damped Newton
  (:func:`repro.spice.dc._newton_batch`), so device physics and the
  iteration exist in exactly one place;
* capacitive elements -- explicit capacitors plus each MOSFET's
  operating-point ``Cgs``/``Cds``, from the same gather of the
  linearization the AC analysis stamps -- are discretized with
  backward-Euler or trapezoidal companion models that the plan stamps
  after the resistive elements.

The testbench is a *step*: the simulation starts from a converged DC
operating point (capacitor currents are zero -- a consistent initial
condition) and at ``t = 0+`` every independent source jumps by
``step_amplitude`` times its AC magnitude, so the transient excites
exactly the port the AC analysis drives (for the OTA testbenches: a
differential input step of ``step_amplitude`` volts).  The step moves
the plan's source arrays (:meth:`~repro.spice.plan.StampPlan.stepped`);
no netlist is copied or changed.

There is one implementation, :func:`run_tran_many`: solutions whose
circuits share one MNA structure (the key that also groups the DC and
AC analyses, :func:`repro.spice.plan.structure_groups`) -- one
topology's population of width vectors, including the same population
rebuilt at several PVT corners (each candidate carries its own
corner-skewed device parameters in the plan) -- integrate *together*,
with the per-step Newton iterations vectorized over the candidate axis,
one fused device evaluation and one stacked ``np.linalg.solve`` per
iteration.  :func:`run_tran` is a batch of one.  Every per-candidate
floating-point operation is elementwise and every matrix entry sums its
terms in the scalar order, so each waveform is bit-identical to the
scalar reference in ``tests/scalar_reference.py`` run on that candidate
alone (pinned by the parity tests), and failures are isolated per
candidate: a design whose Newton diverges at some time step holds a
:class:`~repro.spice.dc.ConvergenceError` in its slot instead of
aborting the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dc import GMIN, ConvergenceError, DCSolution, _newton_batch
from .netlist import GROUND
from .plan import StampPlan, structure_groups

__all__ = ["TranResult", "run_tran", "run_tran_many"]

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
        at ``t = 0+`` (see :meth:`~repro.spice.plan.StampPlan.stepped`).
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


def run_tran_many(  # checks: hot-path
    solutions: list,
    t_stop: float,
    n_steps: int = 160,
    method: str = "trap",
    step_amplitude: float = DEFAULT_STEP_AMPLITUDE,
    max_newton_iterations: int = MAX_TRAN_ITERATIONS,
) -> list:
    """Integrate the step responses of many operating points together.

    Solutions whose circuits share one MNA structure (one topology's
    candidate population, corner-mixed batches included -- the structure
    key is the corner-agnostic one of every analysis,
    :func:`repro.spice.plan.structure_groups`) run every time step's
    Newton iteration *together*, with vectorized assembly and one stacked
    linear solve per iteration.  Each waveform is bit-identical to the scalar
    reference run on that candidate alone (pinned by the parity tests).

    Returns a list aligned with ``solutions`` whose entries are either
    :class:`TranResult` or :class:`ConvergenceError` (per-candidate
    failure isolation: one diverging design never aborts the batch).
    """
    dt, times = _grid(method, t_stop, n_steps)
    results: list = [None] * len(solutions)
    for indices in structure_groups([solution.circuit for solution in solutions]):
        batch = [solutions[i] for i in indices]
        outcomes = _tran_batch(
            batch,
            times,
            dt,
            method,
            step_amplitude,
            max_newton_iterations,
        )
        for i, outcome in zip(indices, outcomes, strict=True):
            results[i] = outcome
    return results


def _tran_batch(  # checks: hot-path
    solutions: list,
    times: np.ndarray,
    dt: float,
    method: str,
    step_amplitude: float,
    max_newton_iterations: int,
) -> list:
    """Integrate one structure-sharing group; see :func:`run_tran_many`.

    Every time step is one :func:`repro.spice.dc._newton_batch` call on the
    candidates still alive, with the companion model of each capacitive
    element: ``g = coef * C``, the branch voltages at the previous step and
    the trapezoidal history ``hist`` (zero for backward-Euler), which after
    a step becomes the companion current at the new point.  A candidate
    whose Newton fails at some step is dropped from the state arrays.
    """
    plan = StampPlan([solution.circuit for solution in solutions], solutions)
    plan = plan.stepped(step_amplitude)
    n = plan.n_nodes
    batch = len(solutions)
    n_steps = len(times) - 1
    x = plan.pack(
        [solution.node_voltages for solution in solutions],
        [solution.source_currents for solution in solutions],
    )
    waveforms = np.empty((batch, n_steps + 1, n))
    waveforms[:, 0, :] = x[:, :n]
    # Starting from DC steady state, every capacitor current is zero.
    hist = np.zeros((plan.n_caps, batch))
    newton_totals = np.zeros(batch, dtype=int)
    # ``x``, ``hist`` and ``active_plan`` hold the rows of ``alive``, the
    # candidates no step has failed yet; the work buffers serve every step.
    alive = np.arange(batch)
    active_plan = plan
    work = plan.workspace(batch)

    for step in range(1, n_steps + 1):
        if alive.size == 0:
            break
        m = alive.size
        coef = _step_coef(method, dt, step)
        g = np.multiply(active_plan.capacitance, coef, out=work.cap_g(m))
        v_prev = active_plan.cap_voltages(x, work, out=work.cap_v(m))
        x_new, iterations, converged = _newton_batch(
            active_plan, x, 1.0, GMIN, max_newton_iterations, work, (g, v_prev, hist)
        )
        newton_totals[alive] += iterations
        if method == "trap":
            # The new history is the companion current at the new point.
            update = active_plan.cap_voltages(x_new, work, out=work.cap_v_new(m))
            update -= v_prev
            update *= g
            np.subtract(update, hist, out=hist)
        if converged.all():
            np.copyto(x, x_new)
        else:
            x, hist = x_new[converged], hist[:, converged]
            alive = alive[converged]
            active_plan = plan.take(alive)
        waveforms[alive, step, :] = x[:, :n]

    outcomes: list = []
    survived = np.zeros(batch, dtype=bool)
    survived[alive] = True
    for j in range(batch):
        if survived[j]:
            outcomes.append(
                TranResult(
                    times=times,
                    node_names=plan.node_names,
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
