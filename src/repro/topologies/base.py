"""Base class for the OTA topologies of Fig. 6.

Every topology knows how to

* build a fully sized :class:`~repro.spice.netlist.Circuit` from a width
  vector (one width per *matched device group*, enforcing the paper's
  matching constraints for current mirrors and differential pairs),
* measure its performance metrics (gain / 3 dB BW / UGF) through the SPICE
  substrate, and
* produce its symbolic DP-SFG and path inventory (Stage I of the flow).

Widths are always expressed per device *group*: the paper enforces matching
between e.g. M1/M2 and M3/M4, so the free design variables are the group
widths, and the representative device of each group names the group.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from ..devices import (
    NOMINAL_CORNER,
    VDD,
    Corner,
    CornerLike,
    TechParams,
    resolve_corner,
    resolve_corners,
)
from ..dpsfg import DPSFG, build_dpsfg, enumerate_paths, PathInventory
from ..spice import (
    Circuit,
    ConvergenceError,
    DCSolution,
    PerformanceMetrics,
    TranResult,
    extract_metrics,
    extract_tran_metrics,
    run_ac,
    run_ac_many,
    run_tran,
    run_tran_many,
    solve_dc,
    solve_dc_many,
)

__all__ = [
    "DeviceGroup",
    "OTATopology",
    "MeasurementResult",
    "MeasureOutcome",
    "CornerSweep",
    "resolve_analyses",
    "analyses_for_spec",
    "DEFAULT_ANALYSES",
    "TRAN_ANALYSES",
]

#: The pre-transient measurement pipeline (operating point + AC sweep).
DEFAULT_ANALYSES = ("dc", "ac")

#: The full pipeline including the step-response transient.
TRAN_ANALYSES = ("dc", "ac", "tran")


def resolve_analyses(analyses) -> tuple[str, ...]:
    """Normalize an analyses selector to its canonical tuple.

    ``None`` (and anything equivalent to the default) resolves to
    :data:`DEFAULT_ANALYSES`; adding ``"tran"`` resolves to
    :data:`TRAN_ANALYSES`.  ``"dc"`` and ``"ac"`` are always implied --
    the operating point anchors every other analysis and the AC sweep
    produces the paper's specification metrics -- so the selector really
    toggles the transient leg.  Unknown names are rejected loudly.
    """
    if analyses is None:
        return DEFAULT_ANALYSES
    requested = set(analyses)
    unknown = requested - set(TRAN_ANALYSES)
    if unknown:
        raise ValueError(
            f"unknown analyses {sorted(unknown)} (known: {', '.join(TRAN_ANALYSES)})"
        )
    return TRAN_ANALYSES if "tran" in requested else DEFAULT_ANALYSES


def analyses_for_spec(spec, analyses) -> tuple[str, ...]:
    """The pipeline that judges ``spec``: the requested ``analyses``
    (resolved by :func:`resolve_analyses`), with the transient leg pulled
    in when the spec sets a transient target -- such a spec cannot be
    judged without the measurement it depends on."""
    resolved = resolve_analyses(analyses)
    return TRAN_ANALYSES if spec.requires_tran else resolved


@dataclass(frozen=True)
class DeviceGroup:
    """A set of matched devices sharing one width.

    ``region`` is the inversion region the paper's data generation enforces
    for this group (``"weak"`` for differential pairs, ``"strong"`` for
    current mirrors, ``None`` for unconstrained devices like tails, which
    only need to stay saturated).
    """

    name: str
    devices: tuple[str, ...]
    role: str
    tech: TechParams
    region: str | None = None
    width_bounds: tuple[float, float] = (0.7e-6, 50e-6)

    def __post_init__(self) -> None:
        if self.name not in self.devices:
            raise ValueError(f"group name {self.name!r} must be one of its devices")
        low, high = self.width_bounds
        if not (0 < low < high):
            raise ValueError(f"invalid width bounds {self.width_bounds}")


@dataclass
class MeasurementResult:
    """Everything one 'SPICE run' of a sized design yields.

    ``tran`` holds the step-response waveforms when the transient
    analysis was part of the run (``analyses`` included ``"tran"`` and
    the candidate passed the transient gate of
    :meth:`OTATopology.measure_many`); its metrics are merged into
    :attr:`metrics` as the optional transient fields.
    """

    circuit: Circuit
    dc: DCSolution
    metrics: PerformanceMetrics
    device_params: dict[str, dict[str, float]]
    tran: TranResult | None = None

    def all_saturated(self) -> bool:
        return all(op.saturated for op in self.dc.operating_points.values())


@dataclass
class MeasureOutcome:
    """One candidate's slot in a bulk :meth:`OTATopology.measure_many` call.

    A failed candidate (non-convergent DC, unbuildable width vector) holds
    ``result=None`` and a diagnostic ``error`` string instead of aborting
    the batch -- the per-candidate isolation population-based solvers rely
    on.
    """

    widths: dict[str, float]
    result: MeasurementResult | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class CornerSweep:
    """One candidate's per-corner outcomes in a multi-corner bulk call.

    Produced by :meth:`OTATopology.measure_many` (and the evaluation
    backends) when a ``corners=`` axis is requested, and by
    ``EvalBackend.measure_sweeps`` for every request (a nominal one is the
    one-corner ``tt`` axis): ``outcomes[j]`` is the candidate's
    :class:`MeasureOutcome` at ``corners[j]``, with per-(candidate, corner)
    failure isolation -- a design that converges at TT but not at SS holds
    a failed outcome in the SS slot only.
    """

    widths: dict[str, float]
    corners: tuple[Corner, ...]
    outcomes: tuple[MeasureOutcome, ...]

    @property
    def ok(self) -> bool:
        """True when every corner simulated successfully."""
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def n_ok(self) -> int:
        """Number of corners that simulated successfully."""
        return sum(1 for outcome in self.outcomes if outcome.ok)

    def outcome(self, corner_name: str) -> MeasureOutcome:
        """The outcome at the named corner."""
        for corner, outcome in zip(self.corners, self.outcomes, strict=True):
            if corner.name == corner_name:
                return outcome
        raise KeyError(f"no corner named {corner_name!r} in this sweep")

    def metrics_by_corner(self) -> dict[str, PerformanceMetrics]:
        """Per-corner metrics of the converged corners, keyed by name."""
        return {
            corner.name: outcome.result.metrics
            for corner, outcome in zip(self.corners, self.outcomes, strict=True)
            if outcome.ok
        }

    def worst_corner(self, spec) -> tuple[str, PerformanceMetrics]:
        """The binding corner against ``spec``
        (:meth:`~repro.core.DesignSpec.binding_corner`): the worst miss, or
        the least margin when every corner passes.  Requires :attr:`ok`
        (every corner converged).
        """
        if not self.ok:
            raise ValueError("worst_corner needs every corner to have converged")
        return spec.binding_corner(self.metrics_by_corner())


class OTATopology(ABC):
    """Abstract OTA topology: subclasses define groups and netlist shape."""

    #: Human-readable topology name, e.g. ``"5T-OTA"``.
    name: str = "OTA"
    #: Load capacitance (the paper fixes ``CL = 500 fF``).
    load_capacitance: float = 500e-15
    #: Channel length for all devices (the paper fixes ``L = 180 nm``).
    length: float = 180e-9
    #: Nominal supply voltage -- the single supply knob of the stack
    #: (shared with :func:`repro.topologies.build_active_inductor`); PVT
    #: corners scale it through :meth:`supply_voltage`.
    vdd: float = VDD
    #: Name of the voltage source driving the supply rail; corner supply
    #: scaling rewrites this source's DC value.
    supply_source: str = "VDD"
    #: Name of the supply rail *node*; corner-aware initial guesses re-pin
    #: this entry at the scaled rail.  Override together with
    #: :attr:`supply_source` when a subclass wires its supply differently.
    supply_node: str = "vdd"
    #: Default input common-mode voltage.
    vcm: float = 0.6
    #: Names of the differential input voltage sources.
    input_sources: tuple[str, str] = ("VINP", "VINN")
    #: Circuit node observed as the OTA output.
    output_node: str = "out"
    #: Step-response (transient) testbench knobs: simulation window,
    #: number of uniform time steps, differential step amplitude (scaled
    #: by each source's AC magnitude), integration method and settling
    #: tolerance band.  The window must comfortably cover the topology's
    #: open-loop settling (~5 time constants at the slowest expected
    #: f3dB); subclasses with slower dominant poles override it.
    tran_t_stop: float = 400e-9
    tran_steps: int = 160
    tran_step_v: float = 1e-3
    tran_method: str = "trap"
    tran_settle_tol: float = 0.02
    #: Inversion-coefficient thresholds for the region filters.  The paper
    #: enforces weak inversion for differential pairs and strong inversion
    #: for current mirrors; the exact IC cutoffs are calibration knobs of
    #: our substrate (classic EKV boundaries are 1 and 10 -- we accept
    #: upper-moderate mirrors at IC > 5 so the 0.7 um minimum width of the
    #: sweep box remains usable at the paper's bias currents).
    weak_ic_max: float = 1.0
    strong_ic_min: float = 5.0

    def __init__(self) -> None:
        self._symbolic_cache: DPSFG | None = None
        self._inventory_cache: PathInventory | None = None

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def groups(self) -> tuple[DeviceGroup, ...]:
        """Matched device groups, in schematic order."""

    @abstractmethod
    def build(self, widths: Mapping[str, float], vcm: float | None = None) -> Circuit:
        """Construct the sized netlist from per-group widths."""

    def initial_guess(self) -> dict[str, float]:
        """Node-voltage starting point for the DC solver (override freely)."""
        return {}

    # ------------------------------------------------------------------
    # Common helpers
    # ------------------------------------------------------------------
    @property
    def group_names(self) -> tuple[str, ...]:
        return tuple(group.name for group in self.groups)

    def group(self, name: str) -> DeviceGroup:
        for group in self.groups:
            if group.name == name:
                return group
        raise KeyError(f"no device group {name!r} in {self.name}")

    def device_to_group(self) -> dict[str, str]:
        """Map every device name to its group's representative name."""
        mapping: dict[str, str] = {}
        for group in self.groups:
            for device in group.devices:
                mapping[device] = group.name
        return mapping

    def validate_widths(self, widths: Mapping[str, float]) -> dict[str, float]:
        """Check a width vector covers every group and respects bounds."""
        checked: dict[str, float] = {}
        for group in self.groups:
            if group.name not in widths:
                raise KeyError(f"missing width for group {group.name!r}")
            value = float(widths[group.name])
            if value <= 0:
                raise ValueError(f"group {group.name!r}: width must be positive")
            checked[group.name] = value
        return checked

    def expand_widths(self, widths: Mapping[str, float]) -> dict[str, float]:
        """Per-group widths -> per-device widths (matching constraints)."""
        checked = self.validate_widths(widths)
        expanded: dict[str, float] = {}
        for group in self.groups:
            for device in group.devices:
                expanded[device] = checked[group.name]
        return expanded

    def nominal_widths(self) -> dict[str, float]:
        """Geometric-mean width per group (a sane starting design)."""
        return {
            group.name: float(np.sqrt(group.width_bounds[0] * group.width_bounds[1]))
            for group in self.groups
        }

    # ------------------------------------------------------------------
    # Corner-aware circuit construction
    # ------------------------------------------------------------------
    def supply_voltage(self, corner: CornerLike = None) -> float:
        """The supply rail at ``corner`` (nominal :attr:`vdd` by default)."""
        return resolve_corner(corner).supply(self.vdd)

    def build_circuit(
        self, widths: Mapping[str, float], corner: CornerLike = None
    ) -> Circuit:
        """Construct the sized netlist at a PVT corner.

        The nominal corner (default) is the identity: it returns exactly
        what :meth:`build` produces, bit-identical to the pre-corner path.
        A skewed corner rebuilds every MOSFET with corner-skewed
        :class:`~repro.devices.TechParams` and rescales the DC value of
        the :attr:`supply_source` voltage source.
        """
        resolved = resolve_corner(corner)
        circuit = self.build(widths)
        if resolved.is_nominal:
            return circuit
        return self._apply_corner(circuit, resolved)

    def _apply_corner(self, circuit: Circuit, corner: Corner) -> Circuit:
        """Rewrite a nominal netlist in place for a skewed corner."""
        circuit.corner = corner
        for slot, device in enumerate(circuit.mosfets):
            circuit.mosfets[slot] = device.with_tech(corner.apply_tech(device.tech))
        if corner.vdd_scale != 1.0:
            supply = circuit.vsource(self.supply_source)
            supply.dc = corner.supply(supply.dc)
        return circuit

    def initial_guess_for(self, corner: CornerLike = None) -> dict[str, float]:
        """DC starting point at ``corner``: :meth:`initial_guess` with the
        :attr:`supply_node` entry re-pinned at the corner's scaled rail."""
        guess = dict(self.initial_guess())
        resolved = resolve_corner(corner)
        if resolved.vdd_scale != 1.0 and self.supply_node in guess:
            guess[self.supply_node] = resolved.supply(self.vdd)
        return guess

    # ------------------------------------------------------------------
    # Measurement (one "SPICE simulation" of the paper's flow)
    # ------------------------------------------------------------------
    def measure(
        self,
        widths: Mapping[str, float],
        corner: CornerLike = None,
        analyses: Sequence[str] | None = None,
    ) -> MeasurementResult:
        """Build, solve DC, run AC and extract the paper's three metrics.

        One candidate through the batched kernels as a batch of one
        (:func:`repro.spice.solve_dc`, :func:`repro.spice.run_ac`,
        :func:`repro.spice.run_tran`); unlike :meth:`measure_many` it
        raises a failure instead of recording it.

        ``corner`` selects the PVT evaluation context (preset name,
        :class:`~repro.devices.Corner` or override mapping); the default
        nominal corner is bit-identical to the pre-corner flow.

        ``analyses`` selects the measurement pipeline (see
        :func:`resolve_analyses`): the default ``("dc", "ac")`` is
        bit-identical to the pre-transient flow; adding ``"tran"``
        additionally integrates the step-response testbench (this
        topology's ``tran_*`` knobs) and fills the transient metric
        fields.
        """
        resolved_analyses = resolve_analyses(analyses)
        circuit = self.build_circuit(widths, corner=corner)
        dc = solve_dc(circuit, initial_guess=self.initial_guess_for(corner))
        metrics = extract_metrics(run_ac(dc), self.output_node)
        tran = run_tran(dc, **self._tran_testbench()) if "tran" in resolved_analyses else None
        return self._package_measurement(circuit, dc, metrics, tran=tran)

    def _tran_testbench(self) -> dict:
        """The step-response testbench as ``run_tran(_many)`` keywords."""
        return {
            "t_stop": self.tran_t_stop,
            "n_steps": self.tran_steps,
            "method": self.tran_method,
            "step_amplitude": self.tran_step_v,
        }

    def _package_measurement(
        self,
        circuit: Circuit,
        dc: DCSolution,
        metrics: PerformanceMetrics,
        tran: TranResult | None = None,
    ) -> MeasurementResult:
        """Metrics + per-device small-signal bundle of one solved design:
        its AC ``metrics``, with the transient ones merged in when ``tran``
        ran."""
        if tran is not None:
            metrics = extract_tran_metrics(
                tran, self.output_node, base=metrics, settle_tol=self.tran_settle_tol
            )
        device_params = {
            name: {
                "gm": op.small_signal.gm,
                "gds": op.small_signal.gds,
                "cds": op.small_signal.cds,
                "cgs": op.small_signal.cgs,
                "id": abs(op.small_signal.id),
            }
            for name, op in dc.operating_points.items()
        }
        return MeasurementResult(
            circuit=circuit, dc=dc, metrics=metrics, device_params=device_params, tran=tran
        )

    def measure_many(
        self,
        widths_list: list,
        corners: Sequence[CornerLike] | None = None,
        analyses: Sequence[str] | None = None,
        specs: Sequence | None = None,
    ) -> list:
        """Measure a whole population of width vectors in one bulk pass.

        The batched counterpart of :meth:`measure`: the per-candidate DC
        Newton solves share one vectorized assembly
        (:func:`repro.spice.solve_dc_many`), the small-signal AC solves
        collapse into one stacked complex MNA factorization over
        population x frequency grid (:func:`repro.spice.run_ac_many`),
        and -- with ``"tran"`` in ``analyses`` -- the step-response
        integrations share one candidate-vectorized Newton per time step
        (:func:`repro.spice.run_tran_many`).  A candidate's metrics do not
        depend on what else shares its batch, so they are bit-identical to
        :meth:`measure` on that candidate alone.

        ``corners=None`` evaluates the population at the nominal corner
        and returns a flat ``list[MeasureOutcome]`` -- the one-corner
        ``tt`` axis, unwrapped.  A ``corners`` sequence evaluates every
        candidate at every corner: the population x corner pairs stack
        into the same batched DC/AC solves (one Newton batch and one
        complex factorization per circuit structure), and the return
        value is a ``list[CornerSweep]`` aligned with ``widths_list``.

        Failures are isolated per candidate-corner pair: a design whose
        DC solve does not converge, whose width vector cannot be built,
        or whose transient integration diverges yields an outcome with
        ``ok=False`` instead of raising, so one bad design never aborts a
        population evaluation.

        ``specs`` gates the transient leg.  The default ``None`` runs it
        for every converged candidate-corner pair.  A sequence aligned
        with ``widths_list`` gives the spec each candidate is judged
        against, already derated by its tolerance; the transient then
        runs only for candidates that converged at every corner and meet
        their spec's AC targets (``DesignSpec.ac_satisfied``) at every
        corner.  Any other candidate fails its spec whatever its step
        response: it keeps its AC metrics bit for bit and reports its
        transient fields as ``None`` (``result.tran`` is ``None``).
        """
        resolved_analyses = resolve_analyses(analyses)
        if corners is None:
            sweeps = self._measure_corner_sweeps(
                widths_list, (NOMINAL_CORNER,), resolved_analyses, specs
            )
            return [sweep.outcomes[0] for sweep in sweeps]
        resolved_corners = resolve_corners(corners)
        if not resolved_corners:
            raise ValueError("corners must be non-empty (use corners=None for nominal)")
        return self._measure_corner_sweeps(widths_list, resolved_corners, resolved_analyses, specs)

    def _tran_slots(
        self,
        solved: list,
        ac_metrics: list[PerformanceMetrics],
        n_corners: int,
        analyses: tuple[str, ...],
        specs: Sequence | None,
    ) -> list:
        """Transient slots of the ``solved`` (candidate, corner, circuit,
        DC) entries: ``TranResult``/error entries for the pairs the gate
        passes, ``None`` for the others and for every pair when
        ``analyses`` has no ``"tran"``.

        Ungated (``specs=None``) every pair passes.  Gated, a candidate
        passes when each of its ``n_corners`` corners converged and meets
        its spec's AC targets (a (candidate, corner) pair appears at most
        once in ``solved``).
        """
        trans: list = [None] * len(solved)
        if "tran" not in analyses:
            return trans
        slots = list(range(len(solved)))
        if specs is not None:
            passed = Counter(
                i
                for (i, _, _, _), metrics in zip(solved, ac_metrics, strict=True)
                if specs[i].ac_satisfied(metrics)
            )
            slots = [k for k in slots if passed[solved[k][0]] == n_corners]
        if slots:
            results = run_tran_many([solved[k][3] for k in slots], **self._tran_testbench())
            for k, tran in zip(slots, results, strict=True):
                trans[k] = tran
        return trans

    def _measure_corner_sweeps(
        self,
        widths_list: list,
        corners: tuple[Corner, ...],
        analyses: tuple[str, ...] = DEFAULT_ANALYSES,
        specs: Sequence | None = None,
    ) -> list[CornerSweep]:
        """Bulk-evaluate population x corners; see :meth:`measure_many`.

        All candidate-corner pairs are built up front and handed to *one*
        ``solve_dc_many`` / ``run_ac_many`` pass: the DC structure key is
        corner-agnostic, so the whole block factorizes together instead
        of once per corner (``bench_table8``'s corner-throughput mode pins
        the resulting >=2x over per-corner sequential evaluation).  The
        pairs the transient gate passes then share one ``run_tran_many``
        pass, grouped the same way, with each candidate's corner-skewed
        device parameters in its stamp plan.
        """
        rows = [[MeasureOutcome(widths=dict(widths)) for _ in corners] for widths in widths_list]
        corner_guesses = [self.initial_guess_for(corner) for corner in corners]
        pair_slots: list[tuple[int, int]] = []
        circuits: list[Circuit] = []
        guesses: list[dict[str, float]] = []
        for i, widths in enumerate(widths_list):
            for j, corner in enumerate(corners):
                try:
                    circuit = self.build_circuit(widths, corner=corner)
                except (KeyError, ValueError) as error:
                    rows[i][j].error = str(error)
                    continue
                pair_slots.append((i, j))
                circuits.append(circuit)
                guesses.append(corner_guesses[j])

        solutions = solve_dc_many(circuits, initial_guess=guesses)
        solved: list[tuple[int, int, Circuit, DCSolution]] = []
        for (i, j), circuit, solution in zip(pair_slots, circuits, solutions, strict=True):
            if isinstance(solution, ConvergenceError):
                rows[i][j].error = str(solution)
            else:
                solved.append((i, j, circuit, solution))

        ac_results = run_ac_many([dc for _, _, _, dc in solved])
        ac_metrics = [extract_metrics(ac, self.output_node) for ac in ac_results]
        trans = self._tran_slots(solved, ac_metrics, len(corners), analyses, specs)
        for (i, j, circuit, dc), metrics, tran in zip(solved, ac_metrics, trans, strict=True):
            if isinstance(tran, ConvergenceError):
                rows[i][j].error = str(tran)
            else:
                rows[i][j].result = self._package_measurement(circuit, dc, metrics, tran=tran)
        return [
            CornerSweep(widths=dict(widths), corners=corners, outcomes=tuple(row))
            for widths, row in zip(widths_list, rows, strict=True)
        ]

    def regions_ok(self, dc: DCSolution) -> bool:
        """Check the paper's region-of-operation constraints (Sec. IV-A)."""
        for group in self.groups:
            for device in group.devices:
                op = dc.op(device)
                if not op.saturated:
                    return False
                if group.region == "weak" and op.inversion_coefficient >= self.weak_ic_max:
                    return False
                if group.region == "strong" and op.inversion_coefficient <= self.strong_ic_min:
                    return False
        return True

    # ------------------------------------------------------------------
    # DP-SFG (Stage I)
    # ------------------------------------------------------------------
    def symbolic_dpsfg(self) -> DPSFG:
        """Topology-level DP-SFG with symbolic device parameters.

        The graph structure depends only on connectivity, never on widths,
        so it is cached; the encoder sequences for every design of one
        topology share it (Sec. IV-A: the encoder paths 'maintain
        consistency across all designs within a specific topology').
        """
        if self._symbolic_cache is None:
            circuit = self.build(self.nominal_widths())
            self._symbolic_cache = build_dpsfg(circuit, self.output_node)
        return self._symbolic_cache

    def path_inventory(self) -> PathInventory:
        """Cached forward-path/cycle inventory of the symbolic DP-SFG."""
        if self._inventory_cache is None:
            self._inventory_cache = enumerate_paths(self.symbolic_dpsfg())
        return self._inventory_cache
