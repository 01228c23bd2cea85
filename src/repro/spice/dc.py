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
vectorized over the candidates of one circuit structure (the key that
also groups the AC and transient analyses,
:func:`repro.spice.plan.structure_groups`), and :func:`solve_dc` is a
batch of one.  Each structure group compiles one
:class:`~repro.spice.plan.StampPlan`, which also indexes the nodes,
builds every candidate's starting point and unpacks the solutions; a
Newton iteration is one fused EKV evaluation over every MOSFET of every
candidate plus an ordered index-array assembly, and the operating points
of a converged group are extracted in one array pass.  The scalar
reference the parity tests pin it against lives in
``tests/scalar_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..devices import OperatingPoint, SmallSignal
from ..devices.ekv import operating_point_arrays
from . import linsolve
from .netlist import GROUND, Circuit
from .plan import StampPlan, structure_groups

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
        plan = StampPlan([self.circuit])
        x = plan.pack([self.node_voltages], [self.source_currents])
        residual, _ = plan.assemble(x, 1.0, GMIN, plan.workspace(1))
        return float(np.max(np.abs(residual[0, : plan.n_nodes]), initial=0.0))


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
    *together*: each iteration assembles the group's residuals and
    Jacobians through its :class:`~repro.spice.plan.StampPlan` and makes
    one stacked ``np.linalg.solve``.  Candidates of one group may differ
    in MOSFET widths, MOSFET technology parameters (corner-skewed
    ``vt0``/``kp``/``ut``, each instance's ``Ispec`` computed by its own
    :meth:`~repro.devices.TechParams.spec_current`) and voltage-source DC
    values (corner-scaled supplies).  Every per-candidate floating-point
    operation is elementwise and every matrix entry sums its terms in the
    scalar order, so each solution -- operating points included -- is
    bit-identical to the scalar reference solve of that circuit alone,
    whatever else shares its batch (the parity and batch-invariance tests
    pin this).

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
    for indices in structure_groups(circuits):
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
    plan = StampPlan(circuits)
    # Each candidate starts from its own source values (corner-scaled
    # supplies differ).
    x0s = plan.start_points(guesses)
    work = plan.workspace(len(circuits))
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
                plan.take(alive), x[alive], source_scale, gmin, max_iterations, work
            )
            x[alive] = solved
            totals[alive] += iterations
            alive = alive[converged]
            if alive.size == 0:
                break
        if alive.size:
            solutions = _finalize(
                plan.take(alive), [circuits[j] for j in alive], x[alive], totals[alive], strategy
            )
            for j, solution in zip(alive, solutions, strict=True):
                outcomes[j] = solution
        pending = pending[~np.isin(pending, alive)]
    for j in pending:
        outcomes[j] = ConvergenceError(
            f"DC solve failed for circuit {circuits[j].name!r} with all strategies"
        )
    return outcomes


def _newton_batch(  # checks: hot-path
    plan: StampPlan,
    x0s: np.ndarray,
    source_scale: float,
    gmin: float,
    max_iterations: int = 150,
    work=None,
    companion: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    abstol: float = 1e-10,
    reltol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton over the candidates of ``plan``; per-candidate convergence.

    ``x0s`` has shape ``(batch, size + 1)`` -- one padded starting point
    per candidate (:meth:`StampPlan.start_points`, :meth:`StampPlan.pack`).
    Candidates freeze the moment their own convergence criterion fires,
    so each trajectory is the candidate's own one-at-a-time Newton
    iteration, bit for bit.
    Returns ``(solutions, iterations, converged)``, views of ``work`` (a
    :meth:`StampPlan.workspace` of at least ``batch`` rows, allocated when
    not given) that the next call on the same workspace overwrites.

    The DC strategies call it with ``source_scale``/``gmin`` per stage;
    each transient time step calls it with the step's ``companion``
    arrays (see :meth:`StampPlan.assemble`), which follow the candidates.
    """
    n, size = plan.n_nodes, plan.size
    batch = x0s.shape[0]
    if work is None:
        work = plan.workspace(batch)
    x = work.newton_x[:batch]
    np.copyto(x, x0s)
    solutions = work.solutions[:batch]
    np.copyto(solutions, x0s)
    iterations = work.iterations[:batch]
    iterations.fill(0)
    converged = work.converged[:batch]
    converged.fill(False)
    active = work.rows[:batch]
    active_plan = plan
    for iteration in range(1, max_iterations + 1):
        m = active.size
        xa = np.take(x, active, axis=0, out=work.x[:m])
        f, jac = active_plan.assemble(xa, source_scale, gmin, work, companion)
        # Newton steps J dx = -f, with solve_stacked's per-item recovery
        # of singular systems.
        dx = linsolve.solve_stacked(jac, -f)
        # Voltage-step damping: scale each candidate's update so no node
        # moves more than MAX_STEP volts in one iteration.
        if n:
            v_step = np.max(np.abs(dx[:, :n]), axis=1)
            over = v_step > MAX_STEP
            if np.any(over):
                dx[over] *= (MAX_STEP / v_step[over])[:, None]
        x[active, :size] += dx
        node_residual = np.max(np.abs(f[:, :n]), axis=1, initial=0.0)
        done = (node_residual < abstol) & (np.max(np.abs(dx), axis=1, initial=0.0) < reltol)
        if np.any(done):
            newly = active[done]
            solutions[newly] = x[newly]
            iterations[newly] = iteration
            converged[newly] = True
            active = active[~done]
            if active.size == 0:
                break
            # Re-gather per-candidate data only when the active set shrinks.
            active_plan = plan.take(active)
            if companion is not None:
                companion = tuple(array[:, ~done] for array in companion)
    return solutions, iterations, converged


def _finalize(
    plan: StampPlan, circuits: list, x: np.ndarray, iterations: np.ndarray, strategy: str
) -> list[DCSolution]:
    """The :class:`DCSolution` of each converged candidate of ``plan``.

    ``x`` holds the padded solutions.  Every MOSFET operating point of the
    group comes out of one :func:`~repro.devices.ekv.operating_point_arrays`
    call, bit for bit each device's scalar
    :meth:`~repro.devices.MOSFET.operating_point`.
    """
    vgs, vds = plan.bias(x)
    # One row per candidate, one column per MOSFET.
    values = {
        name: array.T.tolist()
        for name, array in operating_point_arrays(vgs, vds, plan.devices).items()
    }
    vgs, vds = vgs.T.tolist(), vds.T.tolist()
    names = [mosfet.name for mosfet in circuits[0].mosfets]
    solutions = []
    for j, (circuit, (voltages, currents)) in enumerate(zip(circuits, plan.unpack(x), strict=True)):
        ops = {
            name: OperatingPoint(
                vgs=vgs[j][k],
                vds=vds[j][k],
                small_signal=SmallSignal(
                    id=values["id"][j][k],
                    gm=values["gm"][j][k],
                    gds=values["gds"][j][k],
                    cgs=values["cgs"][j][k],
                    cds=values["cds"][j][k],
                ),
                inversion_coefficient=values["ic"][j][k],
                saturated=values["saturated"][j][k],
            )
            for k, name in enumerate(names)
        }
        solutions.append(
            DCSolution(
                circuit=circuit,
                node_voltages=voltages,
                source_currents=currents,
                iterations=int(iterations[j]),
                strategy=strategy,
                operating_points=ops,
            )
        )
    return solutions
