"""Scalar reference implementations of the batched kernels.

Production has one evaluation path: the batched SPICE kernels of
:mod:`repro.spice` (a single candidate is a batch of one) and the
KV-cached :meth:`repro.transformer.Transformer.greedy_decode`.  This
module keeps the one-candidate-at-a-time implementations they replaced,
so the parity tests and the model-free bench smokes pin the batched
kernels bit for bit against code that production never runs:

* :class:`MNASystem` and :func:`initial_point`: one candidate's node
  indexing, packing and Newton start point;
* :func:`residual_and_jacobian`, :func:`newton` and :func:`solve_dc`:
  scalar MNA assembly and damped DC Newton with gmin and source-stepping
  continuation, and :func:`finalize`: each MOSFET's operating point from
  its own scalar model calls;
* :func:`step_sources`, :func:`cap_elements`, :func:`tran_residual`,
  :func:`tran_newton` and :func:`run_tran`: scalar transient stepping on
  a stepped copy of the netlist;
* :class:`ACSystem` and :func:`run_ac`: one candidate's element-by-element
  ``G``/``C`` stamps and frequency sweep;
* :func:`measure` and :class:`ScalarBackend`: one full SPICE run per
  candidate (per candidate-corner pair on the corner axis);
* :func:`characterize_device`: the Fig. 5 LUT characterization as one
  one-transistor DC testbench solve per grid point;
* :func:`greedy_decode_stepwise`: the KV-cached decode step loop that
  keeps every row in the batch until the last one emits EOS, and
  :func:`greedy_decode_naive`: the decoder that re-runs the whole prefix
  every step;
* :func:`end_round_every_round`: the copilot's round end that runs every
  round of a request's budget, also after margin allocation has reached
  a fixed point.

The module shares no assembly code with the kernels it checks: it
imports no stamp plan, no fused device kernel and no private
``repro.spice`` name except the transient's time grid and step
coefficient (``tests/test_stamp_plan.py`` enforces this).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.margin import tighten_spec
from repro.devices import NOMINAL_CORNER, Corner, CornerLike, TechParams, resolve_corners
from repro.service.engine import _NUDGE
from repro.solvers import EvalBackend
from repro.spice import (
    ACResult,
    CharacterizationResult,
    Circuit,
    ConvergenceError,
    DCSolution,
    TranResult,
    default_frequency_grid,
    extract_metrics,
    linsolve,
)
from repro.spice.dc import GMIN, MAX_STEP
from repro.spice.netlist import GROUND
from repro.spice.tran import DEFAULT_STEP_AMPLITUDE, MAX_TRAN_ITERATIONS, _grid, _step_coef
from repro.topologies import (
    CornerSweep,
    MeasureOutcome,
    MeasurementResult,
    OTATopology,
    resolve_analyses,
)
from repro.transformer.functional import causal_mask, padding_mask

#: Frequencies per stacked solve in :func:`run_ac`; keeps the
#: ``(freqs, size, size)`` complex ``Y`` stack small.
FREQ_CHUNK = 32


# ----------------------------------------------------------------------
# Node indexing and start point
# ----------------------------------------------------------------------
class MNASystem:
    """One circuit's MNA unknowns: node voltages, then one branch current
    per voltage source."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.node_names = circuit.nodes()
        self.n_nodes = len(self.node_names)
        self.n_sources = len(circuit.vsources)
        self.size = self.n_nodes + self.n_sources
        self._index = {name: i for i, name in enumerate(self.node_names)}

    def node_index(self, name: str) -> int | None:
        """Index of a node in the unknown vector; ``None`` for ground."""
        if name == GROUND:
            return None
        return self._index[name]

    def pack(self, voltages: dict[str, float], currents: dict[str, float]) -> np.ndarray:
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


def default_guess(system: MNASystem) -> np.ndarray:
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


def initial_point(system: MNASystem, initial_guess: dict[str, float] | None) -> np.ndarray:
    """Starting vector: heuristic guess overridden by the caller's hints."""
    x0 = default_guess(system)
    if initial_guess:
        for name, value in initial_guess.items():
            idx = system.node_index(name)
            if idx is not None:
                x0[idx] = value
    return x0


# ----------------------------------------------------------------------
# DC operating point
# ----------------------------------------------------------------------
def residual_and_jacobian(
    system: MNASystem, x: np.ndarray, source_scale: float, gmin: float
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``f(x)`` and ``J(x)`` of one candidate's MNA equations.

    ``source_scale`` multiplies every independent source value (used by
    the source-stepping continuation).  ``gmin`` is the shunt
    conductance to ground at each node.
    """
    circuit = system.circuit
    n = system.n_nodes
    f = np.zeros(system.size)
    jac = np.zeros((system.size, system.size))

    def volt(idx: int | None) -> float:
        return 0.0 if idx is None else float(x[idx])

    # gmin shunts keep floating subcircuits well-conditioned.
    if n:
        f[:n] += gmin * x[:n]
        diag = np.arange(n)
        jac[diag, diag] += gmin

    for res in circuit.resistors:
        i1, i2 = system.node_index(res.node1), system.node_index(res.node2)
        g = res.conductance
        current = g * (volt(i1) - volt(i2))
        if i1 is not None:
            f[i1] += current
            jac[i1, i1] += g
            if i2 is not None:
                jac[i1, i2] -= g
        if i2 is not None:
            f[i2] -= current
            jac[i2, i2] += g
            if i1 is not None:
                jac[i2, i1] -= g

    for src in circuit.isources:
        ip, in_ = system.node_index(src.pos), system.node_index(src.neg)
        value = src.dc * source_scale
        if ip is not None:
            f[ip] += value
        if in_ is not None:
            f[in_] -= value

    for mosfet in circuit.mosfets:
        id_, ig, is_ = (
            system.node_index(mosfet.drain),
            system.node_index(mosfet.gate),
            system.node_index(mosfet.source),
        )
        vd, vg, vs = volt(id_), volt(ig), volt(is_)
        ids = mosfet.ids(vd, vg, vs)
        gm, gds = mosfet.conductances(vd, vg, vs)
        # Current i_ds leaves the drain node and enters the source node.
        if id_ is not None:
            f[id_] += ids
            jac[id_, id_] += gds
            if ig is not None:
                jac[id_, ig] += gm
            if is_ is not None:
                jac[id_, is_] -= gm + gds
        if is_ is not None:
            f[is_] -= ids
            jac[is_, is_] += gm + gds
            if id_ is not None:
                jac[is_, id_] -= gds
            if ig is not None:
                jac[is_, ig] -= gm

    for k, src in enumerate(circuit.vsources):
        row = n + k
        ip, in_ = system.node_index(src.pos), system.node_index(src.neg)
        branch_current = float(x[row])
        # Branch current flows out of the positive node.
        if ip is not None:
            f[ip] += branch_current
            jac[ip, row] += 1.0
        if in_ is not None:
            f[in_] -= branch_current
            jac[in_, row] -= 1.0
        f[row] = volt(ip) - volt(in_) - src.dc * source_scale
        if ip is not None:
            jac[row, ip] += 1.0
        if in_ is not None:
            jac[row, in_] -= 1.0

    return f, jac


def newton(
    system: MNASystem,
    x0: np.ndarray,
    source_scale: float,
    gmin: float,
    max_iterations: int = 150,
    abstol: float = 1e-10,
    reltol: float = 1e-9,
) -> tuple[np.ndarray, int]:
    """Damped Newton iteration; returns the solution and iteration count."""
    x = x0.copy()
    for iteration in range(1, max_iterations + 1):
        f, jac = residual_and_jacobian(system, x, source_scale, gmin)
        dx = linsolve.solve_stacked(jac, -f)
        # Voltage-step damping: scale the whole update so no node moves
        # more than MAX_STEP volts in one iteration.
        v_step = np.max(np.abs(dx[: system.n_nodes])) if system.n_nodes else 0.0
        if v_step > MAX_STEP:
            dx *= MAX_STEP / v_step
        x += dx
        node_residual = (
            float(np.max(np.abs(f[: system.n_nodes]))) if system.n_nodes else 0.0
        )
        if node_residual < abstol and float(np.max(np.abs(dx), initial=0.0)) < reltol:
            return x, iteration
    raise ConvergenceError(
        f"Newton failed after {max_iterations} iterations "
        f"(source_scale={source_scale}, gmin={gmin})"
    )


def finalize(system: MNASystem, x: np.ndarray, iterations: int, strategy: str) -> DCSolution:
    """One candidate's :class:`DCSolution`, each MOSFET's operating point
    from its scalar :meth:`~repro.devices.MOSFET.operating_point`."""
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


def solve_dc(
    circuit: Circuit,
    initial_guess: dict[str, float] | None = None,
    max_iterations: int = 150,
) -> DCSolution:
    """Solve one circuit's DC operating point; raises :class:`ConvergenceError`
    when plain Newton, gmin stepping and source stepping all fail."""
    system = MNASystem(circuit)
    x0 = initial_point(system, initial_guess)
    total_iterations = 0

    # Strategy 1: plain damped Newton.
    try:
        x, iters = newton(system, x0, 1.0, GMIN, max_iterations)
        return finalize(system, x, iters, "newton")
    except ConvergenceError:
        pass

    # Strategy 2: gmin stepping.
    x = x0.copy()
    try:
        for exponent in range(3, 13):
            gmin = 10.0 ** (-exponent)
            x, iters = newton(system, x, 1.0, gmin, max_iterations)
            total_iterations += iters
        return finalize(system, x, total_iterations, "gmin-stepping")
    except ConvergenceError:
        pass

    # Strategy 3: source stepping.
    x = np.zeros(system.size)
    total_iterations = 0
    try:
        for scale in np.linspace(0.1, 1.0, 10):
            x, iters = newton(system, x, float(scale), GMIN, max_iterations)
            total_iterations += iters
        return finalize(system, x, total_iterations, "source-stepping")
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"DC solve failed for circuit {circuit.name!r} with all strategies"
        ) from exc


# ----------------------------------------------------------------------
# Transient
# ----------------------------------------------------------------------
def step_sources(circuit: Circuit, amplitude: float) -> Circuit:
    """The post-step netlist: every source jumps by ``amplitude * ac``.

    Supplies and bias sources carry ``ac = 0`` and stay put; the stimulus
    sources step by their share of the amplitude.  The copy leaves the
    original circuit untouched.
    """
    stepped = circuit.copy()
    for source in stepped.vsources:
        source.dc = source.dc + amplitude * source.ac
    for source in stepped.isources:
        source.dc = source.dc + amplitude * source.ac
    return stepped


def cap_elements(system: MNASystem, solution: DCSolution) -> list:
    """Capacitive two-terminal elements as ``(i1, i2, c)`` index triples.

    Explicit capacitors keep their netlist value; each MOSFET contributes
    its operating-point ``Cgs`` (gate-source) and ``Cds`` (drain-source),
    in that order after the capacitors.
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


def _dv(x: np.ndarray, i1: int | None, i2: int | None) -> float:
    """Branch voltage ``v(i1) - v(i2)`` with ground as implicit zero."""
    v1 = 0.0 if i1 is None else x[i1]
    v2 = 0.0 if i2 is None else x[i2]
    return v1 - v2


def tran_residual(
    system: MNASystem,
    caps: list,
    x: np.ndarray,
    x_prev: np.ndarray,
    hist: np.ndarray,
    coef: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual/Jacobian of one time step: DC stamps + cap companions.

    The companion current of element ``e`` is
    ``i = coef * C * (dv - dv_prev) - hist[e]`` where ``hist`` is zero
    for backward-Euler and the previous step's capacitor current for the
    trapezoidal rule.
    """
    f, jac = residual_and_jacobian(system, x, source_scale=1.0, gmin=GMIN)
    for e, (i1, i2, c) in enumerate(caps):
        g = coef * c
        current = g * (_dv(x, i1, i2) - _dv(x_prev, i1, i2)) - hist[e]
        if i1 is not None:
            f[i1] += current
            jac[i1, i1] += g
            if i2 is not None:
                jac[i1, i2] -= g
        if i2 is not None:
            f[i2] -= current
            jac[i2, i2] += g
            if i1 is not None:
                jac[i2, i1] -= g
    return f, jac


def tran_newton(
    system: MNASystem,
    caps: list,
    x_prev: np.ndarray,
    hist: np.ndarray,
    coef: float,
    max_iterations: int,
    abstol: float = 1e-10,
    reltol: float = 1e-9,
) -> tuple[np.ndarray, int]:
    """Damped Newton for one time step (mirrors :func:`newton`)."""
    x = x_prev.copy()
    for iteration in range(1, max_iterations + 1):
        f, jac = tran_residual(system, caps, x, x_prev, hist, coef)
        dx = linsolve.solve_stacked(jac, -f)
        v_step = np.max(np.abs(dx[: system.n_nodes])) if system.n_nodes else 0.0
        if v_step > MAX_STEP:
            dx *= MAX_STEP / v_step
        x += dx
        node_residual = (
            float(np.max(np.abs(f[: system.n_nodes]))) if system.n_nodes else 0.0
        )
        if node_residual < abstol and float(np.max(np.abs(dx), initial=0.0)) < reltol:
            return x, iteration
    raise ConvergenceError(
        f"transient Newton failed after {max_iterations} iterations"
    )


def run_tran(
    solution: DCSolution,
    t_stop: float,
    n_steps: int = 160,
    method: str = "trap",
    step_amplitude: float = DEFAULT_STEP_AMPLITUDE,
    max_newton_iterations: int = MAX_TRAN_ITERATIONS,
) -> TranResult:
    """Integrate one solved circuit's step response over ``[0, t_stop]``;
    raises :class:`ConvergenceError` when a time step's Newton fails."""
    dt, times = _grid(method, t_stop, n_steps)
    stepped = step_sources(solution.circuit, step_amplitude)
    system = MNASystem(stepped)
    caps = cap_elements(system, solution)
    x = system.pack(solution.node_voltages, solution.source_currents)
    waveforms = np.empty((n_steps + 1, system.n_nodes))
    waveforms[0] = x[: system.n_nodes]
    # Starting from DC steady state, every capacitor current is zero.
    hist = np.zeros(len(caps))
    total_iterations = 0
    for step in range(1, n_steps + 1):
        coef = _step_coef(method, dt, step)
        x_new, iterations = tran_newton(system, caps, x, hist, coef, max_newton_iterations)
        total_iterations += iterations
        if method == "trap":
            for e, (i1, i2, c) in enumerate(caps):
                hist[e] = coef * c * (_dv(x_new, i1, i2) - _dv(x, i1, i2)) - hist[e]
        x = x_new
        waveforms[step] = x[: system.n_nodes]
    return TranResult(
        times=times,
        node_names=system.node_names,
        waveforms=waveforms,
        method=method,
        step_amplitude=step_amplitude,
        newton_iterations=total_iterations,
    )


# ----------------------------------------------------------------------
# AC
# ----------------------------------------------------------------------
class ACSystem:
    """The complex MNA matrices of one linearized circuit, stamped element
    by element: ``G`` (resistors, then each MOSFET's ``gds`` and ``gm``
    VCCS, then the voltage-source incidence), ``C`` (capacitors, then each
    MOSFET's ``Cds`` and ``Cgs``) and the excitation ``rhs``."""

    def __init__(self, solution: DCSolution):
        self.circuit: Circuit = solution.circuit
        self.solution = solution
        self.node_names = self.circuit.nodes()
        self.n_nodes = len(self.node_names)
        self.n_sources = len(self.circuit.vsources)
        self.size = self.n_nodes + self.n_sources
        self._index = {name: i for i, name in enumerate(self.node_names)}
        self.conductance, self.capacitance, self.rhs = self._assemble()

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
            small = self.solution.op(mosfet.name).small_signal
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


def run_ac(solution: DCSolution, frequencies: np.ndarray | None = None) -> ACResult:
    """One candidate's AC sweep, :data:`FREQ_CHUNK` frequencies per
    stacked solve."""
    freqs = default_frequency_grid() if frequencies is None else np.asarray(frequencies, dtype=float)
    system = ACSystem(solution)
    phasors = np.zeros((len(freqs), system.n_nodes), dtype=complex)
    omegas = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    for start in range(0, len(omegas), FREQ_CHUNK):
        w = omegas[start : start + FREQ_CHUNK]
        y_stack = system.conductance[None, :, :] + (1j * w)[:, None, None] * system.capacitance[None, :, :]
        rhs = np.broadcast_to(system.rhs, (len(w), system.size))
        solved = linsolve.solve_stacked(y_stack, rhs)
        phasors[start : start + len(w)] = solved[:, : system.n_nodes]
    return ACResult(frequencies=freqs, node_names=system.node_names, phasors=phasors)


# ----------------------------------------------------------------------
# One SPICE run per candidate
# ----------------------------------------------------------------------
def measure(
    topology: OTATopology,
    widths: Mapping[str, float],
    corner: CornerLike = None,
    analyses: Sequence[str] | None = None,
) -> MeasurementResult:
    """:meth:`OTATopology.measure` on the scalar kernels above."""
    circuit = topology.build_circuit(widths, corner=corner)
    dc = solve_dc(circuit, initial_guess=topology.initial_guess_for(corner))
    metrics = extract_metrics(run_ac(dc), topology.output_node)
    tran = None
    if "tran" in resolve_analyses(analyses):
        tran = run_tran(dc, **topology._tran_testbench())
    return topology._package_measurement(circuit, dc, metrics, tran=tran)


class ScalarBackend(EvalBackend):
    """Sequential reference backend: one full scalar SPICE run per
    candidate-corner pair (an empty corner axis is the nominal ``tt``).

    The transient gate is the batched path's: with ``specs`` given, a
    candidate's transients run only once every corner has converged and
    met its spec's AC targets (``DesignSpec.ac_satisfied``)."""

    def measure_sweeps(
        self,
        topology: OTATopology,
        widths_list: Sequence[Mapping[str, float]],
        corners: Sequence[CornerLike],
        analyses: Sequence[str],
        specs: Sequence | None = None,
    ) -> list[CornerSweep]:
        resolved = resolve_corners(corners) or (NOMINAL_CORNER,)
        if specs is None:
            specs = [None] * len(widths_list)
        return [
            self._sweep_one(topology, widths, resolved, analyses, spec)
            for widths, spec in zip(widths_list, specs, strict=True)
        ]

    @staticmethod
    def _sweep_one(
        topology: OTATopology,
        widths: Mapping[str, float],
        corners: tuple[Corner, ...],
        analyses: Sequence[str],
        spec,
    ) -> CornerSweep:
        outcomes = []
        for corner in corners:
            outcome = MeasureOutcome(widths=dict(widths))
            try:
                outcome.result = measure(topology, widths, corner=corner)
            except (ConvergenceError, KeyError, ValueError) as error:
                outcome.error = str(error)
            outcomes.append(outcome)
        gate_passed = spec is None or all(
            outcome.ok and spec.ac_satisfied(outcome.result.metrics) for outcome in outcomes
        )
        if "tran" in resolve_analyses(analyses) and gate_passed:
            for outcome in outcomes:
                if not outcome.ok:
                    continue
                result = outcome.result
                try:
                    tran = run_tran(result.dc, **topology._tran_testbench())
                except ConvergenceError as error:
                    outcome.result, outcome.error = None, str(error)
                    continue
                outcome.result = topology._package_measurement(
                    result.circuit, result.dc, result.metrics, tran=tran
                )
        return CornerSweep(widths=dict(widths), corners=corners, outcomes=tuple(outcomes))


# ----------------------------------------------------------------------
# LUT characterization testbench (Fig. 5)
# ----------------------------------------------------------------------
def characterize_device(
    tech: TechParams,
    vgs_grid: np.ndarray,
    vds_grid: np.ndarray,
    reference_width: float = 700e-9,
    length: float = 180e-9,
) -> CharacterizationResult:
    """:func:`repro.spice.characterize_device` as the literal Fig. 5 flow:
    every ``(Vgs, Vds)`` grid point biases a one-transistor testbench,
    solves its DC operating point and reads the device's small-signal
    parameters per unit width."""
    vgs_grid = np.asarray(vgs_grid, dtype=float)
    vds_grid = np.asarray(vds_grid, dtype=float)
    tables = {
        name: np.zeros((len(vgs_grid), len(vds_grid)))
        for name in CharacterizationResult.OUTPUTS
    }
    # Polarity mapping: the normalized (vgs, vds) pair maps to source-
    # referenced circuit voltages of the proper sign for each device type.
    pol = tech.polarity
    for i, vgs in enumerate(vgs_grid):
        for j, vds in enumerate(vds_grid):
            circuit = Circuit(name=f"char_{tech.name}")
            circuit.add_vsource("VG", "g", "0", pol * vgs)
            circuit.add_vsource("VD", "d", "0", pol * vds)
            circuit.add_mosfet("DUT", "d", "g", "0", tech, reference_width, length)
            solution = solve_dc(circuit, initial_guess={"g": pol * vgs, "d": pol * vds})
            small = solution.op("DUT").small_signal
            for name in CharacterizationResult.OUTPUTS:
                tables[name][i, j] = getattr(small, name) / reference_width
    return CharacterizationResult(
        tech=tech,
        length=length,
        reference_width=reference_width,
        vgs_grid=vgs_grid,
        vds_grid=vds_grid,
        tables=tables,
    )


# ----------------------------------------------------------------------
# Decoder
# ----------------------------------------------------------------------
def greedy_decode_stepwise(
    model,
    src_ids: np.ndarray,
    src_pad: np.ndarray,
    bos_id: int,
    eos_id: int,
    max_len: int | None = None,
) -> list[list[int]]:
    """KV-cached greedy decoder that steps every row until all are done.

    Finished rows keep running and are fed EOS; each step goes through
    the modules' own ``forward`` methods, and the encoder memory comes
    from :meth:`Transformer.encode_by_length`, as in the production
    decode.
    """
    limit = min(max_len or model.config.max_len, model.config.max_len)
    batch = src_ids.shape[0]
    memory = model.encode_by_length(src_ids, src_pad)
    cross_bias = padding_mask(src_pad[:, : memory.shape[1]]).astype(memory.dtype)

    n_heads = model.config.n_heads
    head_dim = model.config.d_model // n_heads
    caches: list[dict] = []
    for block in model.decoder_blocks:
        cross = block.cross_attn
        caches.append(
            {
                "cross_k": cross._split_heads(cross.w_k.forward(memory)),
                "cross_v": cross._split_heads(cross.w_v.forward(memory)),
                "self_k": np.empty((batch, n_heads, limit, head_dim), dtype=memory.dtype),
                "self_v": np.empty((batch, n_heads, limit, head_dim), dtype=memory.dtype),
            }
        )

    generated = np.full((batch, 1), bos_id, dtype=np.int64)
    finished = np.zeros(batch, dtype=bool)
    for step in range(limit - 1):
        last = generated[:, -1:]
        y = model.tgt_embed.forward(last) * model._scale + model.positional[step : step + 1]
        for block, cache in zip(model.decoder_blocks, caches, strict=True):
            self_attn = block.self_attn
            q = self_attn._split_heads(self_attn.w_q.forward(y))
            cache["self_k"][:, :, step : step + 1] = self_attn._split_heads(
                self_attn.w_k.forward(y)
            )
            cache["self_v"][:, :, step : step + 1] = self_attn._split_heads(
                self_attn.w_v.forward(y)
            )
            weights = self_attn.attention_weights(q, cache["self_k"][:, :, : step + 1], None)
            context = weights @ cache["self_v"][:, :, : step + 1]
            attended = self_attn.w_o.forward(self_attn._merge_heads(context))
            x = block.norm1.forward(y + attended)

            cross = block.cross_attn
            q2 = cross._split_heads(cross.w_q.forward(x))
            weights = cross.attention_weights(q2, cache["cross_k"], cross_bias)
            context2 = weights @ cache["cross_v"]
            crossed = cross.w_o.forward(cross._merge_heads(context2))
            x = block.norm2.forward(x + crossed)

            fed = block.ffn.forward(x, training=False)
            y = block.norm3.forward(x + fed)

        logits = model.out_proj.forward(y)
        next_ids = np.argmax(logits[:, 0, :], axis=-1)
        next_ids = np.where(finished, eos_id, next_ids)
        generated = np.concatenate([generated, next_ids[:, None]], axis=1)
        finished |= next_ids == eos_id
        if finished.all():
            break
    return strip_generated(generated, eos_id)


def greedy_decode_naive(
    model,
    src_ids: np.ndarray,
    src_pad: np.ndarray,
    bos_id: int,
    eos_id: int,
    max_len: int | None = None,
) -> list[list[int]]:
    """Greedy decoder re-running the full prefix each step, without a
    KV cache and with every source padded to the batch's longest."""
    limit = min(max_len or model.config.max_len, model.config.max_len)
    batch = src_ids.shape[0]
    memory = model.encode(src_ids, src_pad, training=False)
    cross_mask = padding_mask(src_pad)

    generated = np.full((batch, 1), bos_id, dtype=np.int64)
    finished = np.zeros(batch, dtype=bool)
    for _ in range(limit - 1):
        t = generated.shape[1]
        y = model.tgt_embed.forward(generated) * model._scale + model.positional[:t]
        self_mask = causal_mask(t)
        for block in model.decoder_blocks:
            y = block.forward(y, memory, self_mask, cross_mask, training=False)
        logits = model.out_proj.forward(y[:, -1:, :])
        next_ids = np.argmax(logits[:, 0, :], axis=-1)
        next_ids = np.where(finished, eos_id, next_ids)
        generated = np.concatenate([generated, next_ids[:, None]], axis=1)
        finished |= next_ids == eos_id
        if finished.all():
            break
    return strip_generated(generated, eos_id)


def strip_generated(generated: np.ndarray, eos_id: int) -> list[list[int]]:
    """Each row of ``generated`` without its BOS column, cut at its first EOS."""
    outputs: list[list[int]] = []
    for row in generated:
        ids = list(row[1:])
        if eos_id in ids:
            ids = ids[: ids.index(eos_id)]
        outputs.append([int(i) for i in ids])
    return outputs


# ----------------------------------------------------------------------
# Copilot loop
# ----------------------------------------------------------------------
def end_round_every_round(state, record) -> None:
    """``_ActiveRequest.end_round`` without the fixed-point rule: when
    margin allocation hands back the spec the round asked for, the next
    round asks for it again, so the request decodes, sizes and verifies
    the same design until its budget is spent."""
    state.trace.append(record)
    if record.outcome == "success" or len(state.trace) >= state.request.iteration_budget:
        state.finish()
    elif record.metrics is None:
        state.current = record.requested_spec.scaled(_NUDGE)
    else:
        state.current = tighten_spec(record.requested_spec, state.original, record.metrics)
