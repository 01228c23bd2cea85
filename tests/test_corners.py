"""Tests of the corner-aware evaluation stack.

The contract of the PVT-corner refactor, layer by layer:

* the **nominal corner is the identity** — ``measure``/``measure_many``
  at ``corner=None``/``"tt"`` are bit-identical to the pre-corner flow;
* skewed corners thread **one** supply/process/temperature knob through
  devices -> netlist -> DC/AC solvers, and the stacked-corner batched
  path stays bit-identical to per-(candidate, corner) sequential
  evaluation with per-pair failure isolation;
* objectives and the serving stack score the **worst corner**: a design
  passes only when every corner passes, responses carry per-corner
  metrics plus the binding corner, and corner sets never collide in the
  result cache.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import DesignSpec
from repro.core.bundle import SizingModel
from repro.datagen import SequenceBuilder, SequenceConfig
from repro.datagen.serialize import ParsedParams
from repro.devices import (
    CORNER_PRESETS,
    NMOS_65NM,
    NOMINAL_CORNER,
    PMOS_65NM,
    TEMPERATURE_K,
    THERMAL_VOLTAGE,
    VDD,
    Corner,
    resolve_corner,
    resolve_corners,
    thermal_voltage,
)
from repro.service import SizingEngine, SizingRequest, SizingResponse
from repro.service.cache import ResultCache, quantize_spec
from repro.solvers import BatchedBackend, SearchObjective
from repro.spice import ConvergenceError, PerformanceMetrics, parse_netlist, to_spice
from repro.spice.plan import _structure_key
from repro.topologies import (
    DEFAULT_ANALYSES,
    CornerSweep,
    FiveTransistorOTA,
    MeasureOutcome,
    build_active_inductor,
)

from tests import scalar_reference
from tests.conftest import (
    GOOD_WIDTHS,
    PoisonedFiveT,
    assert_sweeps_identical,
    make_population,
)
from tests.scalar_reference import ScalarBackend

#: Width marking the candidate that converges at TT but not at SS below.
POISON_WIDTH = 4.444e-6

ALL_CORNERS = ("tt", "ss", "ff")


# ----------------------------------------------------------------------
# Corner resolution and the identity of the nominal corner
# ----------------------------------------------------------------------
class TestCornerResolution:
    def test_presets(self):
        assert set(CORNER_PRESETS) == {"tt", "ss", "ff"}
        assert resolve_corner("tt") is NOMINAL_CORNER
        assert resolve_corner(None) is NOMINAL_CORNER
        assert resolve_corner("SS") == CORNER_PRESETS["ss"]
        ss = resolve_corner("ss")
        assert ss.vt0_scale > 1.0 and ss.kp_scale < 1.0 and ss.vdd_scale < 1.0
        ff = resolve_corner("ff")
        assert ff.vt0_scale < 1.0 and ff.kp_scale > 1.0 and ff.vdd_scale > 1.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="known:"):
            resolve_corner("sf")

    def test_mapping_overrides(self):
        corner = resolve_corner({"process": "ss", "vdd_scale": 1.0})
        assert corner.name == "ss"
        assert corner.vt0_scale == CORNER_PRESETS["ss"].vt0_scale
        assert corner.vdd_scale == 1.0
        hot = resolve_corner({"name": "hot", "temperature_k": 398.15})
        assert hot.vt0_scale == 1.0 and hot.temperature_k == 398.15
        with pytest.raises(ValueError, match="unknown corner fields"):
            resolve_corner({"name": "x", "vdd": 1.0})

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            Corner("bad", vdd_scale=0.0)
        with pytest.raises(ValueError):
            Corner("bad", temperature_k=-1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                Corner("bad", kp_scale=bad)
        with pytest.raises(ValueError):
            Corner("")
        # Names key JSON maps and the whitespace-separated netlist header.
        with pytest.raises(ValueError, match="whitespace"):
            Corner("hot corner")
        with pytest.raises(ValueError, match="whitespace"):
            resolve_corner({"name": "a=b"})

    def test_resolve_corners_uniqueness_and_empty(self):
        assert resolve_corners(None) == ()
        assert resolve_corners(()) == ()
        resolved = resolve_corners(ALL_CORNERS)
        assert [c.name for c in resolved] == list(ALL_CORNERS)
        with pytest.raises(ValueError, match="unique"):
            resolve_corners(("ss", {"process": "ss"}))

    def test_nominal_is_identity(self):
        assert NOMINAL_CORNER.is_nominal
        assert NOMINAL_CORNER.apply_tech(NMOS_65NM) is NMOS_65NM
        assert NOMINAL_CORNER.supply(VDD) == VDD
        # A process-only corner keeps the pinned nominal thermal voltage.
        assert thermal_voltage(TEMPERATURE_K) == THERMAL_VOLTAGE

    def test_skewed_tech_cached_and_scaled(self):
        ss = resolve_corner("ss")
        skewed = ss.apply_tech(NMOS_65NM)
        assert skewed is ss.apply_tech(NMOS_65NM)  # cached identity
        assert skewed.vt0 == NMOS_65NM.vt0 * ss.vt0_scale
        assert skewed.kp == NMOS_65NM.kp * ss.kp_scale
        assert skewed.ut == thermal_voltage(ss.temperature_k)
        assert skewed.ut > THERMAL_VOLTAGE  # SS runs hot

    def test_json_round_trip(self):
        assert resolve_corner(CORNER_PRESETS["ss"].to_json()) == CORNER_PRESETS["ss"]
        custom = Corner("cold", temperature_k=233.15)
        assert resolve_corner(custom.to_json()) == custom


# ----------------------------------------------------------------------
# Topology layer: build_circuit / measure at corners
# ----------------------------------------------------------------------
class TestCornerMeasurement:
    def test_nominal_corner_bit_identical(self, five_t, five_t_measurement):
        at_tt = five_t.measure(GOOD_WIDTHS["5T-OTA"], corner="tt")
        assert np.array_equal(
            five_t_measurement.metrics.as_array(), at_tt.metrics.as_array()
        )
        assert five_t_measurement.dc.node_voltages == at_tt.dc.node_voltages
        assert five_t_measurement.dc.iterations == at_tt.dc.iterations
        assert five_t_measurement.dc.strategy == at_tt.dc.strategy
        assert five_t_measurement.device_params == at_tt.device_params

    def test_supply_and_tech_skewed(self, five_t):
        circuit = five_t.build_circuit(GOOD_WIDTHS["5T-OTA"], corner="ss")
        ss = resolve_corner("ss")
        assert circuit.corner == ss
        assert circuit.vsource("VDD").dc == pytest.approx(VDD * ss.vdd_scale)
        for device in circuit.mosfets:
            assert device.tech.ut == thermal_voltage(ss.temperature_k)
        # Nominal build stays unannotated (identity path).
        assert five_t.build_circuit(GOOD_WIDTHS["5T-OTA"]).corner is None
        assert five_t.supply_voltage("ff") == pytest.approx(VDD * 1.10)
        assert five_t.supply_voltage() == VDD

    def test_corner_moves_metrics_the_right_way(self, five_t, five_t_measurement):
        nominal = five_t_measurement.metrics
        ss = five_t.measure(GOOD_WIDTHS["5T-OTA"], corner="ss").metrics
        ff = five_t.measure(GOOD_WIDTHS["5T-OTA"], corner="ff").metrics
        # Slow/hot/low-supply loses speed; fast/cold/high-supply gains it.
        assert ss.ugf_hz < nominal.ugf_hz < ff.ugf_hz
        assert ss.f3db_hz < nominal.f3db_hz < ff.f3db_hz

    def test_corner_circuits_share_one_dc_structure(self, five_t):
        keys = {
            _structure_key(five_t.build_circuit(GOOD_WIDTHS["5T-OTA"], corner=name))
            for name in ALL_CORNERS
        }
        assert len(keys) == 1  # population x corner stacks into one batch

    def test_initial_guess_tracks_supply(self, five_t):
        assert five_t.initial_guess_for()["vdd"] == five_t.initial_guess()["vdd"]
        assert five_t.initial_guess_for("ss")["vdd"] == pytest.approx(VDD * 0.90)

    def test_export_header_round_trip(self, five_t):
        circuit = five_t.build_circuit(GOOD_WIDTHS["5T-OTA"], corner="ss")
        deck = to_spice(circuit)
        assert "* corner: ss" in deck
        parsed = parse_netlist(deck)
        assert parsed.corner == resolve_corner("ss")
        # The parsed deck simulates at the annotated corner: device tech
        # carries the skew again (the M cards name the nominal model) and
        # the supply card its scaled value.
        for original, restored in zip(circuit.mosfets, parsed.mosfets, strict=True):
            assert restored.tech == original.tech
        assert parsed.vsource("VDD").dc == circuit.vsource("VDD").dc
        nominal_deck = to_spice(five_t.build_circuit(GOOD_WIDTHS["5T-OTA"]))
        assert "corner:" not in nominal_deck
        assert parse_netlist(nominal_deck).corner is None

    def test_corner_header_applies_wherever_it_appears(self, five_t):
        """A trailing corner header (comments-at-end decks) still skews the
        parsed devices -- the header is located in a pre-pass."""
        circuit = five_t.build_circuit(GOOD_WIDTHS["5T-OTA"], corner="ss")
        deck = to_spice(circuit)
        lines = deck.splitlines()
        header = next(line for line in lines if line.startswith("* corner:"))
        lines.remove(header)
        lines.insert(len(lines) - 1, header)  # just before .end
        parsed = parse_netlist("\n".join(lines) + "\n")
        assert parsed.corner == resolve_corner("ss")
        for original, restored in zip(circuit.mosfets, parsed.mosfets, strict=True):
            assert restored.tech == original.tech

    def test_ordinary_corner_comments_stay_comments(self):
        """Hand-written comments that merely start '* corner:' must neither
        crash the parser nor mis-annotate the circuit."""
        deck = (
            "* my deck\n"
            "* corner: T=85C\n"
            "* corner: measured at the lab bench\n"
            "R1 a 0 1e3\n"
            ".end\n"
        )
        circuit = parse_netlist(deck)
        assert circuit.corner is None
        assert len(circuit.resistors) == 1

    def test_worst_corner_on_success_is_least_margin(self, five_t):
        """When every corner passes, the binding corner is the one with the
        smallest headroom, not whichever happens to be listed first."""
        sweep = five_t.measure_many(
            [GOOD_WIDTHS["5T-OTA"]], corners=("ff", "tt", "ss")
        )[0]
        ss_metrics = sweep.outcome("ss").result.metrics
        easy = DesignSpec(
            gain_db=ss_metrics.gain_db * 0.97,
            f3db_hz=ss_metrics.f3db_hz * 0.9,
            ugf_hz=ss_metrics.ugf_hz * 0.9,
        )
        name, metrics = sweep.worst_corner(easy)
        assert name == "ss"  # least margin, despite "ff" being listed first
        assert np.array_equal(metrics.as_array(), ss_metrics.as_array())

    def test_measure_many_rejects_conflicting_corner_args(self, five_t):
        """Corners are named one way only: the ``corners=`` axis (the
        single-corner ``corner=`` keyword is gone), and it is non-empty."""
        with pytest.raises(TypeError, match="corner"):
            five_t.measure_many([GOOD_WIDTHS["5T-OTA"]], corner="ss")
        with pytest.raises(ValueError, match="non-empty"):
            five_t.measure_many([GOOD_WIDTHS["5T-OTA"]], corners=())

    def test_measure_many_single_corner_flat(self, five_t):
        sweep = five_t.measure_many([GOOD_WIDTHS["5T-OTA"]], corners=("ss",))[0]
        reference = scalar_reference.measure(five_t, GOOD_WIDTHS["5T-OTA"], corner="ss")
        assert isinstance(sweep.outcomes[0], MeasureOutcome)
        assert np.array_equal(
            sweep.outcomes[0].result.metrics.as_array(), reference.metrics.as_array()
        )


# ----------------------------------------------------------------------
# Supply unification (active inductor shares the topology knob)
# ----------------------------------------------------------------------
class TestSupplyUnification:
    def test_single_supply_knob(self, five_t):
        assert five_t.vdd == VDD  # the topology reads the technology knob
        circuit = build_active_inductor()
        assert circuit.vsource("VDD").dc == VDD  # ...and so does Fig. 2

    def test_corner_scales_active_inductor(self):
        circuit = build_active_inductor(corner="ss")
        ss = resolve_corner("ss")
        assert circuit.vsource("VDD").dc == pytest.approx(VDD * ss.vdd_scale)
        assert circuit.mosfet("M").tech == ss.apply_tech(NMOS_65NM)
        assert circuit.corner == ss
        # Explicit vdd still wins (back-compat escape hatch).
        assert build_active_inductor(vdd=1.0).vsource("VDD").dc == 1.0


# ----------------------------------------------------------------------
# Backend parity on the corner axis (incl. per-pair isolation)
# ----------------------------------------------------------------------
class TestCornerBackendParity:
    def test_batched_bit_identical_to_scalar(self, five_t):
        population = make_population(five_t, 4)
        corners = resolve_corners(ALL_CORNERS)
        scalar = ScalarBackend().measure_sweeps(five_t, population, corners, DEFAULT_ANALYSES)
        batched = BatchedBackend().measure_sweeps(five_t, population, corners, DEFAULT_ANALYSES)
        assert all(isinstance(sweep, CornerSweep) for sweep in batched)
        for reference, sweep in zip(scalar, batched, strict=True):
            assert_sweeps_identical(reference, sweep)

    def test_tt_converges_ss_raises_isolated_per_pair(self):
        """The ISSUE's contract: a candidate that converges at TT but hits
        ConvergenceError at SS fails *only* its (candidate, SS) slot."""
        topology = PoisonedFiveT(POISON_WIDTH, corner_name="ss")
        population = make_population(topology, 3, seed=5)
        poisoned = dict(population[1])
        poisoned["M1"] = POISON_WIDTH
        batch = [population[0], poisoned, population[2]]

        # The sequential path: fine at TT, ConvergenceError at SS.
        topology.measure(poisoned, corner="tt")
        with pytest.raises(ConvergenceError):
            topology.measure(poisoned, corner="ss")

        corners = resolve_corners(ALL_CORNERS)
        scalar = ScalarBackend().measure_sweeps(topology, batch, corners, DEFAULT_ANALYSES)
        batched = BatchedBackend().measure_sweeps(topology, batch, corners, DEFAULT_ANALYSES)
        for sweeps in (scalar, batched):
            sweep = sweeps[1]
            assert not sweep.ok and sweep.n_ok == 2
            assert sweep.outcome("tt").ok and sweep.outcome("ff").ok
            assert not sweep.outcome("ss").ok
            assert sweep.outcome("ss").error is not None
            # Neighbours are untouched, at every corner.
            assert sweeps[0].ok and sweeps[2].ok
        for reference, sweep in zip(scalar, batched, strict=True):
            assert_sweeps_identical(reference, sweep)

    def test_unbuildable_candidate_fails_every_corner(self, five_t):
        bad = dict(GOOD_WIDTHS["5T-OTA"])
        bad.pop("M5")
        sweeps = BatchedBackend().measure_sweeps(
            five_t, [bad], resolve_corners(ALL_CORNERS), DEFAULT_ANALYSES
        )
        assert not sweeps[0].ok and sweeps[0].n_ok == 0
        assert all("M5" in outcome.error for outcome in sweeps[0].outcomes)

    def test_backends_agree_on_empty_corner_axis(self, five_t):
        """Both backends read an empty corner axis as nominal, the
        one-corner ``tt`` sweep -- never as a vacuous all-pass sweep."""
        sweeps = [
            backend.measure_sweeps(five_t, [GOOD_WIDTHS["5T-OTA"]], (), DEFAULT_ANALYSES)[0]
            for backend in (ScalarBackend(), BatchedBackend())
        ]
        for sweep in sweeps:
            assert sweep.corners == (NOMINAL_CORNER,) and sweep.ok
        assert_sweeps_identical(*sweeps)

    def test_backend_measure_single_corner(self, five_t):
        (sweep,) = BatchedBackend().measure_sweeps(
            five_t, [GOOD_WIDTHS["5T-OTA"]], resolve_corners(("ff",)), DEFAULT_ANALYSES
        )
        outcome = sweep.outcomes[0]
        reference = scalar_reference.measure(five_t, GOOD_WIDTHS["5T-OTA"], corner="ff")
        assert np.array_equal(
            outcome.result.metrics.as_array(), reference.metrics.as_array()
        )


# ----------------------------------------------------------------------
# SearchObjective: worst-corner aggregation
# ----------------------------------------------------------------------
class _SweepStub:
    """Duck-typed MeasurementResult carrying only metrics."""

    def __init__(self, metrics):
        self.metrics = metrics


class _ScriptedCornerBackend(BatchedBackend):
    """Backend returning scripted per-corner metrics (None = failure)."""

    def __init__(self, script):
        self.script = list(script)  # one dict corner-name -> metrics per call

    def measure_sweeps(self, topology, widths_list, corners, analyses, specs=None):
        assert corners
        resolved = resolve_corners(corners)
        sweeps = []
        for widths in widths_list:
            per_corner = self.script.pop(0)
            outcomes = []
            for corner in resolved:
                metrics = per_corner[corner.name]
                if metrics is None:
                    outcomes.append(
                        MeasureOutcome(widths=dict(widths), error="scripted failure")
                    )
                else:
                    outcomes.append(
                        MeasureOutcome(widths=dict(widths), result=_SweepStub(metrics))
                    )
            sweeps.append(
                CornerSweep(widths=dict(widths), corners=resolved, outcomes=tuple(outcomes))
            )
        return sweeps


class TestWorstCornerObjective:
    SPEC = DesignSpec(gain_db=25.0, f3db_hz=5e6, ugf_hz=8e7)
    PASS = PerformanceMetrics(26.0, 6e6, 9e7)

    def _objective(self, topology, script):
        return SearchObjective(
            topology, self.SPEC, backend=_ScriptedCornerBackend(script),
            corners=("tt", "ss"),
        )

    def test_pass_requires_all_corners(self, five_t):
        miss_ss = PerformanceMetrics(20.0, 6e6, 9e7)  # 20% gain shortfall at ss
        objective = self._objective(
            five_t, [{"tt": self.PASS, "ss": miss_ss}, {"tt": self.PASS, "ss": self.PASS}]
        )
        space = objective.space
        values = objective.evaluate_many([np.full(space.dimension, 0.5)] * 2)
        assert values[0] == pytest.approx(0.2)  # scored by the worst corner
        assert values[1] == 0.0
        assert objective.satisfied
        assert objective.best_worst_corner == "tt"  # ties -> first corner
        assert set(objective.best_corner_metrics) == {"tt", "ss"}

    def test_failed_corner_scores_penalty(self, five_t):
        from repro.solvers import PENALTY

        objective = self._objective(five_t, [{"tt": self.PASS, "ss": None}])
        value = objective.evaluate_many([np.full(objective.space.dimension, 0.5)])[0]
        assert value == PENALTY
        assert objective.best_widths is None  # a failed corner disqualifies
        assert not objective.satisfied

    def test_spice_call_and_history_accounting(self, five_t):
        objective = self._objective(
            five_t,
            [{"tt": self.PASS, "ss": None}, {"tt": self.PASS, "ss": self.PASS}],
        )
        objective.evaluate_many([np.full(objective.space.dimension, 0.5)] * 2)
        # Every corner evaluation is one SPICE call; history has one entry
        # per call and stays monotone.
        assert objective.spice_calls == 4
        assert len(objective.history) == 4
        assert objective.history == sorted(objective.history, reverse=True)

    def test_real_worst_corner_no_easier_than_nominal(self, five_t, rng):
        measurement = five_t.measure(GOOD_WIDTHS["5T-OTA"])
        spec = DesignSpec(
            measurement.metrics.gain_db * 0.95,
            measurement.metrics.f3db_hz * 0.5,
            measurement.metrics.ugf_hz * 0.5,
        )
        nominal = SearchObjective(five_t, spec)
        corner = SearchObjective(five_t, spec, corners=ALL_CORNERS)
        points = [corner.space.random_point(rng) for _ in range(3)]
        values_nominal = nominal.evaluate_many(points)
        values_corner = corner.evaluate_many(points)
        assert np.all(values_corner >= values_nominal - 1e-12)


# ----------------------------------------------------------------------
# Engine serving: worst-case Stage IV and the response schema
# ----------------------------------------------------------------------
class _FixedDesignModel(SizingModel):
    """Oracle returning one measured design's parameters for any spec."""

    def __init__(self, topology, params, luts):
        builder = SequenceBuilder(topology, SequenceConfig())
        super().__init__(
            transformer=None, bpe=None, vocab=None,
            sequence_config=builder.config,
            builders={topology.name: builder},
            luts=luts,
        )
        self._params = params

    def predict_params(self, topology_name, spec, max_len=None):
        values = {group: dict(params) for group, params in self._params.items()}
        return ParsedParams(values=values, complete=True), f"<fixed:{spec.gain_db:.4f}>"

    def predict_params_many(self, specs_by_topology, max_len=None):
        return {
            name: [self.predict_params(name, spec) for spec in specs]
            for name, specs in specs_by_topology.items()
        }


@pytest.fixture(scope="module")
def corner_serving(nmos_lut, pmos_lut):
    """An engine over the fixed-design oracle plus that design's per-corner
    metrics (measured at the widths Stage III actually recovers)."""
    topology = FiveTransistorOTA()
    measurement = topology.measure(GOOD_WIDTHS["5T-OTA"])
    params = {
        group.name: dict(measurement.device_params[group.name])
        for group in topology.groups
    }
    model = _FixedDesignModel(
        topology, params, {NMOS_65NM.name: nmos_lut, PMOS_65NM.name: pmos_lut}
    )
    engine = SizingEngine(model, cache_size=0)
    engine.adopt_topology(topology)
    widths = engine.widths_from_params(topology, params)
    metrics = {
        name: topology.measure(widths, corner=name).metrics for name in ALL_CORNERS
    }
    return engine, topology, metrics


class TestCornerServing:
    def _easy_spec(self, metrics):
        """Satisfiable at every corner: below the per-metric minimum."""
        return DesignSpec(
            gain_db=min(m.gain_db for m in metrics.values()) * 0.97,
            f3db_hz=min(m.f3db_hz for m in metrics.values()) * 0.9,
            ugf_hz=min(m.ugf_hz for m in metrics.values()) * 0.9,
        )

    def _tt_only_spec(self, metrics):
        """Passes at nominal but not at SS (between the two corners)."""
        return DesignSpec(
            gain_db=metrics["tt"].gain_db * 0.99,
            f3db_hz=metrics["tt"].f3db_hz * 0.95,
            ugf_hz=metrics["tt"].ugf_hz * 0.95,
        )

    def test_success_needs_every_corner(self, corner_serving):
        engine, topology, metrics = corner_serving
        spec = self._tt_only_spec(metrics)
        nominal = engine.size(
            SizingRequest(topology=topology.name, spec=spec, max_iterations=1)
        )
        assert nominal.success  # the same design passes at nominal...
        assert nominal.corner_metrics is None and nominal.worst_corner is None
        hardened = engine.size(
            SizingRequest(
                topology=topology.name, spec=spec, max_iterations=1,
                corners=ALL_CORNERS,
            )
        )
        assert not hardened.success  # ...but not worst-case across corners
        assert hardened.worst_corner == "ss"
        assert set(hardened.corner_metrics) == set(ALL_CORNERS)
        assert hardened.spice_simulations == len(ALL_CORNERS)

    def test_all_corner_success_reports_binding_corner(self, corner_serving):
        engine, topology, metrics = corner_serving
        response = engine.size(
            SizingRequest(
                topology=topology.name, spec=self._easy_spec(metrics),
                max_iterations=1, corners=ALL_CORNERS,
            )
        )
        assert response.success
        # The binding corner of a passing design is the least-margin one.
        assert response.worst_corner == "ss"
        assert set(response.corner_metrics) == set(ALL_CORNERS)
        # The headline metrics are the binding worst corner's measurement.
        worst = response.corner_metrics[response.worst_corner]
        assert np.array_equal(response.metrics.as_array(), worst.as_array())
        for name, measured in metrics.items():
            assert response.corner_metrics[name].gain_db == pytest.approx(
                measured.gain_db
            )

    def test_corner_responses_round_trip_json(self, corner_serving):
        engine, topology, metrics = corner_serving
        response = engine.size(
            SizingRequest(
                topology=topology.name, spec=self._easy_spec(metrics),
                max_iterations=1, corners=("tt", "ss"),
            )
        )
        restored = SizingResponse.from_json_line(response.to_json_line())
        assert restored == response

    def test_mixed_corner_batch_isolated(self, corner_serving):
        """One batch mixing nominal, corner-pass and corner-fail requests:
        each request is judged against its own corner axis.  Nominal
        responses carry no per-corner fields, whether they succeed, run
        out of budget, or come from a search solver."""
        engine, topology, metrics = corner_serving
        easy, tt_only = self._easy_spec(metrics), self._tt_only_spec(metrics)
        unreachable = DesignSpec(
            gain_db=metrics["tt"].gain_db * 2.0,
            f3db_hz=metrics["tt"].f3db_hz,
            ugf_hz=metrics["tt"].ugf_hz,
        )
        responses = engine.size_batch(
            [
                SizingRequest(topology=topology.name, spec=tt_only, id="nom",
                              max_iterations=1),
                SizingRequest(topology=topology.name, spec=easy, id="all",
                              max_iterations=1, corners=ALL_CORNERS),
                SizingRequest(topology=topology.name, spec=tt_only, id="hard",
                              max_iterations=1, corners=ALL_CORNERS),
                SizingRequest(topology=topology.name, spec=unreachable, id="nom-fail",
                              max_iterations=2),
                SizingRequest(topology=topology.name, spec=easy, id="nom-pso",
                              method="pso", budget=24),
            ]
        )
        by_id = {response.request_id: response for response in responses}
        assert by_id["nom"].success and by_id["nom"].corner_metrics is None
        assert by_id["all"].success
        assert not by_id["hard"].success and by_id["hard"].worst_corner == "ss"
        # Out of budget: the best attempt is reported, still without corners.
        failed = by_id["nom-fail"]
        assert not failed.success and failed.metrics is not None
        assert failed.method == "copilot" and failed.spice_simulations == 2
        assert by_id["nom-pso"].method == "pso" and by_id["nom-pso"].metrics is not None
        for request_id in ("nom", "nom-fail", "nom-pso"):
            response = by_id[request_id]
            assert response.corner_metrics is None and response.worst_corner is None


# ----------------------------------------------------------------------
# Request schema and cache behavior
# ----------------------------------------------------------------------
class TestCornerRequests:
    def _request(self, gain=25.0, **kwargs):
        return SizingRequest.for_spec("5T-OTA", gain, 5e6, 8e7, **kwargs)

    def test_corners_normalized_and_round_tripped(self):
        request = self._request(corners=("ss", {"name": "hot", "temperature_k": 398.15}))
        assert all(isinstance(corner, Corner) for corner in request.corners)
        restored = SizingRequest.from_json_line(request.to_json_line())
        assert restored == request
        # Absent / empty corners parse to the nominal flow.
        payload = self._request().to_json()
        assert payload["corners"] == []
        del payload["corners"]
        assert SizingRequest.from_json(payload).corners == ()

    def test_duplicate_corner_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            self._request(corners=("ss", "ss"))

    def test_corner_sets_never_collide_in_cache(self):
        nominal = self._request(id="a")
        ss = self._request(id="b", corners=("ss",))
        both = self._request(id="c", corners=("ss", "ff"))
        keys = {ResultCache.key(r) for r in (nominal, ss, both)}
        assert len(keys) == 3

        cache = ResultCache()
        response = SizingResponse(
            request_id="a", topology="5T-OTA", success=True,
            widths={"M1": 1e-6}, metrics=PerformanceMetrics(26.0, 6e6, 9e7),
            iterations=1, spice_simulations=1, wall_time_s=0.1,
        )
        cache.put(nominal, response)
        assert cache.get(self._request(id="a2")) is not None
        assert cache.get(self._request(id="b2", corners=("ss",))) is None
        assert cache.get(self._request(id="c2", corners=("ss", "ff"))) is None

    def test_near_duplicate_transfer_checks_every_corner(self):
        """The worst corner by *total* shortfall does not dominate per
        metric, so near-duplicate transfer must re-validate all corners."""
        cache = ResultCache()
        cached_request = self._request(id="x", corners=("tt", "ss"))
        response = SizingResponse(
            request_id="x", topology="5T-OTA", success=True,
            widths={"M1": 1e-6},
            # worst corner by sum is "ss" (big ugf miss), but "tt" has the
            # lower gain -- checking only response.metrics would miss it.
            metrics=PerformanceMetrics(26.0, 6e6, 8.5e7),
            corner_metrics={
                "tt": PerformanceMetrics(25.02, 7e6, 9.5e7),
                "ss": PerformanceMetrics(26.0, 6e6, 8.5e7),
            },
            worst_corner="ss",
            iterations=1, spice_simulations=2, wall_time_s=0.1,
        )
        cache.put(cached_request, response)
        # 25.04 quantizes to 25.0 but tt's measured 25.02 dB falls short.
        near = self._request(id="y", gain=25.04, corners=("tt", "ss"))
        assert cache.get(near) is None
        ok = self._request(id="z", gain=25.004, corners=("tt", "ss"))
        assert cache.get(ok) is not None

    def test_near_duplicate_transfer_reranks_binding_corner(self):
        """The binding corner is spec-dependent: a near-duplicate hit must
        re-rank worst_corner/headline metrics against the *new* spec, not
        replay the cached request's stale ranking."""
        cache = ResultCache()
        cached_request = self._request(id="x", corners=("tt", "ss"))
        tt_metrics = PerformanceMetrics(25.01, 9e6, 9.5e7)
        ss_metrics = PerformanceMetrics(26.0, 5.5e6, 9e7)
        response = SizingResponse(
            request_id="x", topology="5T-OTA", success=True,
            widths={"M1": 1e-6},
            metrics=tt_metrics,
            # Deliberately stale ranking relative to the near request.
            corner_metrics={"tt": tt_metrics, "ss": ss_metrics},
            worst_corner="tt",
            iterations=1, spice_simulations=2, wall_time_s=0.1,
        )
        cache.put(cached_request, response)
        # Exact spec: deterministic replay, ranking untouched.
        exact = cache.get(self._request(id="x2", corners=("tt", "ss")))
        assert exact.worst_corner == "tt"
        # Near-duplicate: under its own targets "ss" has the least margin
        # (f3db 5.5e6 vs target 5e6) -- the hit must say so.
        near = cache.get(self._request(id="y", gain=25.004, corners=("tt", "ss")))
        assert near is not None
        assert near.worst_corner == "ss"
        assert np.array_equal(near.metrics.as_array(), ss_metrics.as_array())


# ----------------------------------------------------------------------
# quantize_spec property tests (hypothesis)
# ----------------------------------------------------------------------
class TestQuantizeSpecProperties:
    POSITIVE = st.floats(
        min_value=1e-12, max_value=1e15, allow_nan=False, allow_infinity=False
    )

    @given(POSITIVE)
    def test_idempotent(self, value):
        once = quantize_spec(value)
        assert quantize_spec(once) == once

    @given(POSITIVE, POSITIVE)
    def test_order_preserving(self, a, b):
        low, high = sorted((a, b))
        assert quantize_spec(low) <= quantize_spec(high)

    @given(POSITIVE)
    def test_three_significant_digits(self, value):
        quantized = quantize_spec(value)
        assert quantized == float(f"{value:.3g}")
        if value > 0:
            assert math.isclose(quantized, value, rel_tol=5.1e-3)
