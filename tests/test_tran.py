"""Tests of the transient (step-response) engine and its end-to-end threading.

Layer by layer, the contract of the transient extension:

* the integrator is *correct* (analytic RC reference, trap/BE agreement,
  monotone error-vs-timestep convergence -- hypothesis property tests);
* the batched ``run_tran_many`` is **bit-identical** to the scalar
  reference ``run_tran`` loop (``tests/scalar_reference.py``), with
  per-candidate failure isolation;
* golden traces pin every topology's known-good step response, so future
  solver/stamp refactors diff against known-good waveforms;
* specs/requests/cache/engine/CLI carry the transient targets, while the
  default AC-only path stays bit-identical to the pre-transient flow;
* Stage IV and the solvers' objective run a candidate's transient only
  when it meets every AC target at every corner, and that gate changes
  no verdict (pinned against the ungated measurement).
"""

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.topologies.base as topology_base
from repro.core import DesignSpec, tighten_spec
from repro.devices import NMOS_65NM, PMOS_65NM, resolve_corners
from repro.service import ResultCache, SizingEngine, SizingRequest, SizingResponse
from repro.solvers import BatchedBackend, SearchObjective, SearchSpace
from repro.spice import (
    Circuit,
    ConvergenceError,
    PerformanceMetrics,
    extract_tran_metrics,
    run_tran,
    run_tran_many,
    solve_dc,
)
from repro.topologies import (
    DEFAULT_ANALYSES,
    TRAN_ANALYSES,
    FiveTransistorOTA,
    available_topologies,
    resolve_analyses,
    topology_by_name,
)

from tests import scalar_reference
from tests.conftest import (
    GOOD_WIDTHS,
    BatchedOracleModel,
    PoisonedFiveT,
    UngatedBackend,
    assert_measurements_identical,
    assert_sweeps_identical,
    make_population,
)
from tests.scalar_reference import ScalarBackend

GOLDEN_PATH = Path(__file__).parent / "golden" / "tran_traces.json"

TRAN = ("dc", "ac", "tran")

#: The PVT corner axis of the transient-gate tests.
PVT = ("tt", "ss", "ff")

AC_NAMES = ("gain_db", "f3db_hz", "ugf_hz")


def _rc_circuit(resistance: float, capacitance: float) -> Circuit:
    """V source -> R -> C to ground: the analytic step-response testbench."""
    circuit = Circuit(name="rc")
    circuit.add_vsource("VIN", "in", "0", 1.0, ac=1.0)
    circuit.add_resistor("R1", "in", "out", resistance)
    circuit.add_capacitor("C1", "out", "0", capacitance)
    return circuit


def _rc_response(resistance, capacitance, n_steps, method, amplitude=0.1):
    dc = solve_dc(_rc_circuit(resistance, capacitance))
    tau = resistance * capacitance
    result = run_tran(
        dc, t_stop=5 * tau, n_steps=n_steps, method=method, step_amplitude=amplitude
    )
    analytic = 1.0 + amplitude * (1.0 - np.exp(-result.times / tau))
    return result, analytic


# ----------------------------------------------------------------------
# The integrator against the analytic RC reference
# ----------------------------------------------------------------------
class TestIntegratorAccuracy:
    def test_rc_both_methods_track_the_exponential(self):
        for method in ("be", "trap"):
            result, analytic = _rc_response(1e3, 1e-9, 200, method)
            error = np.max(np.abs(result.voltage("out") - analytic))
            assert error < 0.002  # 2% of the 0.1 V step

    def test_trap_is_second_order_be_first_order(self):
        """Halving dt must cut the BE error ~2x and the trap error ~4x."""
        errors = {}
        for method in ("be", "trap"):
            errors[method] = []
            for n_steps in (100, 200, 400):
                result, analytic = _rc_response(1e3, 1e-9, n_steps, method)
                errors[method].append(np.max(np.abs(result.voltage("out") - analytic)))
        be_ratio = errors["be"][0] / errors["be"][2]
        trap_ratio = errors["trap"][0] / errors["trap"][2]
        assert 2.5 < be_ratio < 6.0  # ~4x over two halvings (first order)
        assert 10.0 < trap_ratio < 22.0  # ~16x over two halvings (second order)
        assert errors["trap"][1] < errors["be"][1]

    def test_final_value_matches_small_signal_gain(self, five_t, five_t_measurement):
        """For a small step, the settled output delta is the DC gain times
        the input step -- ties the transient engine to the AC analysis."""
        result = five_t.measure(GOOD_WIDTHS["5T-OTA"], analyses=TRAN)
        out = result.tran.voltage(five_t.output_node)
        delta = out[-1] - out[0]
        expected = five_t_measurement.metrics.gain_linear * five_t.tran_step_v
        assert delta == pytest.approx(expected, rel=0.02)

    def test_bad_arguments_rejected(self, five_t_measurement):
        dc = five_t_measurement.dc
        with pytest.raises(ValueError, match="unknown integration method"):
            run_tran(dc, t_stop=1e-7, method="rk4")
        with pytest.raises(ValueError, match="t_stop"):
            run_tran(dc, t_stop=0.0)
        with pytest.raises(ValueError, match="n_steps"):
            run_tran(dc, t_stop=1e-7, n_steps=0)
        with pytest.raises(ValueError, match="not a node"):
            run_tran(dc, t_stop=1e-7, n_steps=2).voltage("nope")

    def test_step_sources_scales_by_ac_and_preserves_original(self, five_t):
        circuit = five_t.build(GOOD_WIDTHS["5T-OTA"])
        stepped = scalar_reference.step_sources(circuit, 2e-3)
        assert stepped.vsource("VINP").dc == circuit.vsource("VINP").dc + 1e-3
        assert stepped.vsource("VINN").dc == circuit.vsource("VINN").dc - 1e-3
        assert stepped.vsource("VDD").dc == circuit.vsource("VDD").dc  # ac = 0
        # The original netlist is untouched.
        assert circuit.vsource("VINP").dc == five_t.vcm
        # The batched kernel steps its plan's source arrays and leaves the
        # solutions' circuits as they were.
        dc = solve_dc(circuit, initial_guess=five_t.initial_guess())
        before = [(s.name, s.dc, s.ac) for s in (*circuit.vsources, *circuit.isources)]
        (result,) = run_tran_many([dc], t_stop=20e-9, n_steps=4, step_amplitude=2e-3)
        assert not isinstance(result, ConvergenceError)
        assert dc.circuit is circuit
        assert [(s.name, s.dc, s.ac) for s in (*circuit.vsources, *circuit.isources)] == before


# ----------------------------------------------------------------------
# Hypothesis property tests
# ----------------------------------------------------------------------
class TestIntegratorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        resistance=st.floats(min_value=1e2, max_value=1e5),
        capacitance=st.floats(min_value=1e-12, max_value=1e-9),
    )
    def test_trap_and_be_agree_on_linear_rc(self, resistance, capacitance):
        """Both methods integrate the same circuit: on a linear RC whose
        dt is tau/40 they must agree within the first-order error bound."""
        amplitude = 0.1
        trap, analytic = _rc_response(resistance, capacitance, 200, "trap", amplitude)
        be, _ = _rc_response(resistance, capacitance, 200, "be", amplitude)
        gap = np.max(np.abs(trap.voltage("out") - be.voltage("out")))
        assert gap < 0.05 * amplitude
        assert np.max(np.abs(trap.voltage("out") - analytic)) < 0.01 * amplitude

    @settings(max_examples=15, deadline=None)
    @given(
        resistance=st.floats(min_value=1e2, max_value=1e5),
        capacitance=st.floats(min_value=1e-12, max_value=1e-9),
        method=st.sampled_from(["be", "trap"]),
    )
    def test_halving_the_timestep_shrinks_the_error_monotonically(
        self, resistance, capacitance, method
    ):
        errors = []
        for n_steps in (50, 100, 200):
            result, analytic = _rc_response(resistance, capacitance, n_steps, method)
            errors.append(np.max(np.abs(result.voltage("out") - analytic)))
        assert errors[0] > errors[1] > errors[2]

    @settings(max_examples=10, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_batched_bit_identical_to_sequential_loop(self, five_t, points):
        """``run_tran_many`` over a random candidate population returns
        waveforms bit-identical to the scalar reference's per-candidate
        ``run_tran`` loop."""
        from repro.solvers import SearchSpace

        space = SearchSpace(five_t)
        population = [space.decode(np.array(point)) for point in points]
        solutions = []
        for widths in population:
            try:
                solutions.append(
                    scalar_reference.solve_dc(
                        five_t.build(widths), initial_guess=five_t.initial_guess()
                    )
                )
            except ConvergenceError:
                continue
        if not solutions:
            return
        batched = run_tran_many(solutions, t_stop=50e-9, n_steps=20)
        for solution, outcome in zip(solutions, batched, strict=True):
            reference = scalar_reference.run_tran(solution, t_stop=50e-9, n_steps=20)
            assert np.array_equal(reference.waveforms, outcome.waveforms)
            assert reference.newton_iterations == outcome.newton_iterations
            assert np.array_equal(reference.times, outcome.times)


class TestTranBatchGrouping:
    def test_circuits_differing_only_in_capacitors_never_share_a_group(self):
        """The DC structure key is capacitor-blind (capacitors are open at
        DC); the transient grouping must not be -- a batch mixing circuits
        that differ only in capacitor count/connectivity must still return
        waveforms bit-identical to the sequential loop, in both orders."""
        plain = _rc_circuit(1e3, 1e-9)
        extra = _rc_circuit(1e3, 1e-9)
        extra.add_capacitor("C2", "in", "out", 2e-10)
        solutions = [scalar_reference.solve_dc(plain), scalar_reference.solve_dc(extra)]
        for ordered in (solutions, solutions[::-1]):
            batched = run_tran_many(ordered, t_stop=5e-6, n_steps=50)
            for solution, outcome in zip(ordered, batched, strict=True):
                reference = scalar_reference.run_tran(solution, t_stop=5e-6, n_steps=50)
                assert np.array_equal(reference.waveforms, outcome.waveforms)


# ----------------------------------------------------------------------
# Batched parity and per-candidate isolation at the topology layer
# ----------------------------------------------------------------------
class TestTranMeasureParity:
    def test_measure_many_bit_identical_with_tran(self, five_t):
        population = make_population(five_t, 6, seed=3)
        sequential = [scalar_reference.measure(five_t, w, analyses=TRAN) for w in population]
        outcomes = five_t.measure_many(population, analyses=TRAN)
        for reference, outcome in zip(sequential, outcomes, strict=True):
            assert outcome.ok
            assert outcome.result.metrics.has_tran
            assert_measurements_identical(reference, outcome.result)

    def test_backends_agree_with_tran(self, five_t):
        population = make_population(five_t, 3, seed=7)
        scalar = ScalarBackend().measure_sweeps(five_t, population, (), TRAN_ANALYSES)
        batched = BatchedBackend().measure_sweeps(five_t, population, (), TRAN_ANALYSES)
        for s_sweep, b_sweep in zip(scalar, batched, strict=True):
            (s,), (b,) = s_sweep.outcomes, b_sweep.outcomes
            assert s.ok and b.ok
            assert_measurements_identical(s.result, b.result)

    def test_poisoned_candidate_isolated_with_tran(self):
        poison = 3.456e-6
        topology = PoisonedFiveT(poison)
        population = make_population(topology, 3, seed=5)
        poisoned = dict(population[1])
        poisoned["M1"] = poison
        batch = [population[0], poisoned, population[2]]
        outcomes = topology.measure_many(batch, analyses=TRAN)
        assert not outcomes[1].ok and outcomes[1].error is not None
        for index in (0, 2):
            assert outcomes[index].ok
            assert outcomes[index].result.metrics.has_tran

    def test_corner_sweeps_with_tran_bit_identical(self, five_t):
        population = make_population(five_t, 2, seed=9)
        corners = resolve_corners(("tt", "ss", "ff"))
        scalar = ScalarBackend().measure_sweeps(five_t, population, corners, TRAN_ANALYSES)
        batched = BatchedBackend().measure_sweeps(five_t, population, corners, TRAN_ANALYSES)
        for reference, sweep in zip(scalar, batched, strict=True):
            assert_sweeps_identical(reference, sweep)
        # The corner skew is physical: SS slews slower than FF.
        sweep = batched[0]
        slew = {
            corner.name: outcome.result.metrics.slew_v_per_s
            for corner, outcome in zip(sweep.corners, sweep.outcomes, strict=True)
        }
        assert slew["ss"] < slew["tt"] < slew["ff"]

    def test_default_analyses_unchanged_and_tran_optional(self, five_t):
        plain = five_t.measure(GOOD_WIDTHS["5T-OTA"])
        assert plain.tran is None
        assert not plain.metrics.has_tran
        with_tran = five_t.measure(GOOD_WIDTHS["5T-OTA"], analyses=TRAN)
        assert with_tran.tran is not None
        assert with_tran.metrics.has_tran
        # The AC triple is untouched by the extra analysis.
        assert np.array_equal(plain.metrics.as_array(), with_tran.metrics.as_array())

    def test_resolve_analyses_contract(self):
        assert resolve_analyses(None) == DEFAULT_ANALYSES
        assert resolve_analyses(("ac", "dc")) == DEFAULT_ANALYSES
        assert resolve_analyses(("tran",)) == TRAN_ANALYSES
        assert resolve_analyses(["dc", "ac", "tran"]) == TRAN_ANALYSES
        with pytest.raises(ValueError, match="unknown analyses"):
            resolve_analyses(("dc", "noise"))

# ----------------------------------------------------------------------
# The transient gate: a candidate's step response runs only when it meets
# its spec's AC targets at every corner
# ----------------------------------------------------------------------
class _DivergingTranFiveT(FiveTransistorOTA):
    """5T-OTA whose step response never converges (one Newton iteration
    per time step); its DC and AC are the plain 5T-OTA's."""

    def _tran_testbench(self) -> dict:
        return {**super()._tran_testbench(), "max_newton_iterations": 1}


class TestTransientGate:
    """``measure_many(specs=...)`` at tt/ss/ff against ungated measurement."""

    REL_TOL = 0.02
    #: One role per candidate: meets the AC floor at every corner, misses
    #: the gain floor at its worst corner only, or misses it there by less
    #: than ``REL_TOL``.
    ROLES = ("pass", "pass", "pass", "miss", "miss", "within_tol")

    @pytest.fixture(scope="class")
    def gate_case(self, five_t):
        population = make_population(five_t, len(self.ROLES), seed=3)
        corners = resolve_corners(PVT)
        ungated = five_t.measure_many(population, corners=corners, analyses=TRAN)
        originals = []
        for role, sweep in zip(self.ROLES, ungated, strict=True):
            assert sweep.ok
            by_corner = sweep.metrics_by_corner().values()
            gains = sorted(metrics.gain_db for metrics in by_corner)
            gain = {
                "pass": gains[0] * 0.99,
                "miss": (gains[0] + gains[1]) / 2,
                "within_tol": gains[0] * (1 + self.REL_TOL / 2),
            }[role]
            f3db, ugf = (min(getattr(m, name) for m in by_corner) * 0.99 for name in AC_NAMES[1:])
            originals.append(DesignSpec(gain, f3db, ugf, settling_time_s=1e-6))
        specs = [spec.derated(self.REL_TOL) for spec in originals]
        return population, corners, ungated, originals, specs

    def test_gate_passes_candidates_meeting_ac_everywhere(self, gate_case):
        _, _, ungated, originals, specs = gate_case
        for role, original, spec, sweep in zip(self.ROLES, originals, specs, ungated, strict=True):
            by_corner = sweep.metrics_by_corner().values()
            assert all(spec.ac_satisfied(m) for m in by_corner) == (role != "miss")
            # The derated spec is the verdict's own judgement under rel_tol.
            for metrics in by_corner:
                assert spec.ac_satisfied(metrics) == original.ac_satisfied(metrics, self.REL_TOL)
            if role == "within_tol":
                assert not all(original.ac_satisfied(m) for m in by_corner)

    def test_gated_pairs_skip_only_the_transient(self, five_t, gate_case, monkeypatch):
        population, corners, ungated, _, specs = gate_case
        sent = []

        def recording(solutions, **kwargs):
            sent.extend(solutions)
            return run_tran_many(solutions, **kwargs)

        monkeypatch.setattr(topology_base, "run_tran_many", recording)
        gated = five_t.measure_many(population, corners=corners, analyses=TRAN, specs=specs)
        for role, reference, sweep in zip(self.ROLES, ungated, gated, strict=True):
            if role != "miss":
                assert_sweeps_identical(reference, sweep)
                continue
            assert sweep.ok
            for ref, outcome in zip(reference.outcomes, sweep.outcomes, strict=True):
                assert outcome.result.tran is None and not outcome.result.metrics.has_tran
                assert np.array_equal(
                    ref.result.metrics.as_array(), outcome.result.metrics.as_array()
                )
                assert ref.result.dc.node_voltages == outcome.result.dc.node_voltages
                assert ref.result.device_params == outcome.result.device_params
        # Only the passing candidates' operating points reached the kernel.
        expected = [
            outcome.result.dc
            for role, sweep in zip(self.ROLES, gated, strict=True)
            if role != "miss"
            for outcome in sweep.outcomes
        ]
        assert sorted(map(id, sent)) == sorted(map(id, expected))

    def test_scalar_reference_applies_the_same_gate(self, five_t, gate_case):
        population, corners, _, _, specs = gate_case
        scalar = ScalarBackend().measure_sweeps(five_t, population, corners, TRAN_ANALYSES, specs)
        batched = BatchedBackend().measure_sweeps(five_t, population, corners, TRAN_ANALYSES, specs)
        for reference, sweep in zip(scalar, batched, strict=True):
            assert_sweeps_identical(reference, sweep)
        assert [sweep.outcomes[0].result.metrics.has_tran for sweep in scalar] == [
            role != "miss" for role in self.ROLES
        ]

    def test_ac_failing_candidate_with_diverging_transient_stays_ok(self, gate_case):
        """Without the gate an AC-failing candidate whose transient
        diverges fails its sweep; with it, the sweep is ok and AC-only.  A
        candidate that passes AC still runs its transient and fails."""
        population, corners, _, _, specs = gate_case
        topology = _DivergingTranFiveT()
        miss = self.ROLES.index("miss")
        batch, batch_specs = [population[0], population[miss]], [specs[0], specs[miss]]
        ungated = topology.measure_many(batch, corners=corners, analyses=TRAN)
        assert not ungated[0].ok and not ungated[1].ok
        gated = topology.measure_many(batch, corners=corners, analyses=TRAN, specs=batch_specs)
        assert not gated[0].ok
        assert gated[1].ok
        assert not any(outcome.result.metrics.has_tran for outcome in gated[1].outcomes)


# ----------------------------------------------------------------------
# Golden traces: known-good waveforms per topology at the nominal corner
# ----------------------------------------------------------------------
class TestGoldenTraces:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_every_registered_topology_is_pinned(self, golden):
        assert set(golden) == set(available_topologies())

    # Parametrized over the fixture's own keys so a future topology's
    # pinned trace is checked automatically once the generator adds it.
    @pytest.mark.parametrize("name", sorted(json.loads(GOLDEN_PATH.read_text())))
    def test_step_response_matches_golden_trace(self, golden, name):
        entry = golden[name]
        topology = topology_by_name(name)
        # The testbench knobs the fixture was generated with still apply.
        assert topology.tran_t_stop == entry["t_stop"]
        assert topology.tran_steps == entry["n_steps"]
        assert topology.tran_method == entry["method"]
        assert topology.tran_step_v == entry["step_amplitude"]

        measurement = topology.measure(entry["widths"], analyses=TRAN)
        waveform = measurement.tran.voltage(entry["output_node"])
        sampled = waveform[entry["sample_indices"]]
        times = measurement.tran.times[entry["sample_indices"]]
        np.testing.assert_allclose(times, entry["times"], rtol=1e-12)
        # rtol leaves room for BLAS reduction-order drift across platforms
        # while catching any real change to stamps or integration.
        np.testing.assert_allclose(sampled, entry["output"], rtol=1e-8)

        metrics = measurement.metrics
        pinned = entry["metrics"]
        assert metrics.slew_v_per_s == pytest.approx(pinned["slew_v_per_s"], rel=1e-6)
        dt = entry["t_stop"] / entry["n_steps"]
        assert abs(metrics.settling_time_s - pinned["settling_time_s"]) <= dt
        assert metrics.overshoot_frac == pytest.approx(pinned["overshoot_frac"], abs=1e-9)


# ----------------------------------------------------------------------
# Metric extraction on synthetic waveforms
# ----------------------------------------------------------------------
class _FakeTran:
    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self._values = np.asarray(values, dtype=float)

    def voltage(self, node):
        return self._values


class TestTranMetricExtraction:
    def test_ramp_slew_rate(self):
        times = np.linspace(0.0, 1e-6, 11)
        tran = _FakeTran(times, times * 2e6)  # 2 V/us ramp
        metrics = extract_tran_metrics(tran, "out")
        assert metrics.slew_v_per_s == pytest.approx(2e6)

    def test_slew_excludes_first_interval_feedthrough(self):
        """Regression: the t = 0+ step feeds through the load cap as a
        spike in the very first finite difference.  Before the fix the
        spike *was* the reported slew; now the first interval is excluded
        and the amplifier's own steepest interval wins."""
        times = np.linspace(0.0, 1e-6, 11)
        values = times * 2e6
        values[0] = -0.3  # feedthrough discontinuity: first diff = 5e6 V/s
        metrics = extract_tran_metrics(_FakeTran(times, values), "out")
        first_rate = abs(values[1] - values[0]) / (times[1] - times[0])
        assert first_rate > 2e6  # the contaminated rate the fix discards
        assert metrics.slew_v_per_s == pytest.approx(2e6)

    def test_slew_two_sample_waveform_keeps_only_rate(self):
        """With a single finite difference there is nothing to exclude."""
        metrics = extract_tran_metrics(_FakeTran([0.0, 1e-6], [0.0, 1.0]), "out")
        assert metrics.slew_v_per_s == pytest.approx(1e6)

    def test_exponential_settling_and_no_overshoot(self):
        tau = 1e-7
        times = np.linspace(0.0, 10 * tau, 1001)
        tran = _FakeTran(times, 1.0 - np.exp(-times / tau))
        metrics = extract_tran_metrics(tran, "out", settle_tol=0.02)
        # |v - vf| <= 0.02 * delta happens near t = -tau*ln(0.02) ~ 3.9 tau.
        assert metrics.settling_time_s == pytest.approx(3.91 * tau, rel=0.05)
        assert metrics.overshoot_frac == 0.0

    def test_overshoot_of_damped_step(self):
        times = np.linspace(0.0, 1.0, 2001)
        omega, zeta = 30.0, 0.3
        wd = omega * np.sqrt(1 - zeta**2)
        values = 1.0 - np.exp(-zeta * omega * times) * (
            np.cos(wd * times) + zeta / np.sqrt(1 - zeta**2) * np.sin(wd * times)
        )
        tran = _FakeTran(times, values)
        metrics = extract_tran_metrics(tran, "out")
        expected = np.exp(-np.pi * zeta / np.sqrt(1 - zeta**2))
        assert metrics.overshoot_frac == pytest.approx(expected, rel=0.02)

    def test_falling_step_mirrors_rising(self):
        tau = 1e-7
        times = np.linspace(0.0, 10 * tau, 1001)
        rising = extract_tran_metrics(_FakeTran(times, 1.0 - np.exp(-times / tau)), "out")
        falling = extract_tran_metrics(_FakeTran(times, np.exp(-times / tau)), "out")
        assert falling.settling_time_s == rising.settling_time_s
        assert falling.overshoot_frac == rising.overshoot_frac == 0.0
        assert falling.slew_v_per_s == pytest.approx(rising.slew_v_per_s)

    def test_flat_waveform_degenerates_gracefully(self):
        times = np.linspace(0.0, 1e-6, 11)
        metrics = extract_tran_metrics(_FakeTran(times, np.full(11, 0.5)), "out")
        assert metrics.slew_v_per_s == 0.0
        assert metrics.settling_time_s == 0.0
        assert metrics.overshoot_frac == 0.0

    def test_base_metrics_carried_over(self):
        times = np.linspace(0.0, 1e-6, 11)
        base = PerformanceMetrics(25.0, 5e6, 8e7)
        merged = extract_tran_metrics(_FakeTran(times, times * 1e6), "out", base=base)
        assert merged.gain_db == 25.0 and merged.ugf_hz == 8e7
        assert merged.has_tran
        with pytest.raises(ValueError, match="settle_tol"):
            extract_tran_metrics(_FakeTran(times, times), "out", settle_tol=0.0)


# ----------------------------------------------------------------------
# DesignSpec transient fields
# ----------------------------------------------------------------------
class TestTransientSpec:
    METRICS = PerformanceMetrics(
        25.0, 5e6, 8e7, slew_v_per_s=5e5, settling_time_s=1.5e-7, overshoot_frac=0.05
    )

    def test_ac_only_spec_unchanged(self):
        spec = DesignSpec(20.0, 4e6, 7e7)
        assert not spec.requires_tran
        assert set(spec.miss_fractions(self.METRICS)) == {"gain_db", "f3db_hz", "ugf_hz"}
        assert spec.satisfied(self.METRICS)

    def test_direction_of_each_transient_target(self):
        base = dict(gain_db=20.0, f3db_hz=4e6, ugf_hz=7e7)
        assert DesignSpec(**base, slew_v_per_s=4e5).satisfied(self.METRICS)
        assert not DesignSpec(**base, slew_v_per_s=6e5).satisfied(self.METRICS)
        assert DesignSpec(**base, settling_time_s=2e-7).satisfied(self.METRICS)
        assert not DesignSpec(**base, settling_time_s=1e-7).satisfied(self.METRICS)
        assert DesignSpec(**base, overshoot_frac=0.1).satisfied(self.METRICS)
        assert not DesignSpec(**base, overshoot_frac=0.01).satisfied(self.METRICS)

    def test_unmeasured_transient_metric_fails_and_scores_full_miss(self):
        spec = DesignSpec(20.0, 4e6, 7e7, slew_v_per_s=4e5)
        ac_only = PerformanceMetrics(25.0, 5e6, 8e7)
        assert not spec.satisfied(ac_only)
        assert spec.miss_fractions(ac_only)["slew_v_per_s"] == 1.0

    def test_miss_fractions_directions(self):
        spec = DesignSpec(
            20.0, 4e6, 7e7,
            slew_v_per_s=1e6, settling_time_s=1e-7, overshoot_frac=0.025,
        )
        misses = spec.miss_fractions(self.METRICS)
        assert misses["slew_v_per_s"] == pytest.approx(0.5)  # 5e5 vs 1e6 floor
        assert misses["settling_time_s"] == pytest.approx(0.5)  # 1.5e-7 vs 1e-7 cap
        assert misses["overshoot_frac"] == pytest.approx(1.0)  # 0.05 vs 0.025 cap

    def test_transient_excess_is_capped_so_ac_shortfall_ranks_first(self):
        """A design meeting every AC target but settling 5x over its cap
        ranks ahead of one missing gain by 4% whose transient was gated."""
        spec = DesignSpec(25.0, 3e6, 6e7, settling_time_s=1e-7)
        slow = PerformanceMetrics(25.5, 3.2e6, 6.5e7, settling_time_s=5e-7)
        gated = PerformanceMetrics(24.0, 3.2e6, 6.5e7)  # AC miss: transient not run
        assert spec.ac_satisfied(slow) and not spec.ac_satisfied(gated)
        assert spec.miss_fractions(slow)["settling_time_s"] == 1.0  # excess 4.0, capped
        slow_score = sum(spec.miss_fractions(slow).values())
        gated_score = sum(spec.miss_fractions(gated).values())
        assert slow_score == 1.0
        assert gated_score == pytest.approx(1.04)
        assert slow_score < gated_score
        corner, _ = spec.binding_corner({"tt": slow, "ss": gated})
        assert corner == "ss"

    def test_rel_tol_loosens_in_the_right_direction(self):
        base = dict(gain_db=20.0, f3db_hz=4e6, ugf_hz=7e7)
        tight_settle = DesignSpec(**base, settling_time_s=1.4e-7)
        assert not tight_settle.satisfied(self.METRICS)
        assert tight_settle.satisfied(self.METRICS, rel_tol=0.1)
        tight_slew = DesignSpec(**base, slew_v_per_s=5.4e5)
        assert not tight_slew.satisfied(self.METRICS)
        assert tight_slew.satisfied(self.METRICS, rel_tol=0.1)

    def test_ac_satisfied_is_the_ac_half_of_satisfied(self):
        spec = DesignSpec(25.0, 5e6, 8e7, settling_time_s=1e-7)  # METRICS settle slower
        assert spec.ac_satisfied(self.METRICS) and not spec.satisfied(self.METRICS)
        assert spec.ac_satisfied(PerformanceMetrics(25.0, 5e6, 8e7))  # transient unmeasured
        short = replace(self.METRICS, gain_db=24.9)
        assert not spec.ac_satisfied(short) and not spec.satisfied(short)
        assert spec.ac_satisfied(short, rel_tol=0.01)
        assert not spec.ac_satisfied(replace(self.METRICS, ugf_hz=float("nan")))

    def test_validation_and_scaling(self):
        with pytest.raises(ValueError, match="positive"):
            DesignSpec(20.0, 4e6, 7e7, settling_time_s=0.0)
        spec = DesignSpec(20.0, 4e6, 7e7, slew_v_per_s=1e6)
        doubled = spec.scaled({"gain_db": 2.0, "slew_v_per_s": 2.0})
        assert doubled.gain_db == 40.0 and doubled.slew_v_per_s == 2e6
        assert doubled.settling_time_s is None
        # Factors for unset fields are ignored.
        assert spec.scaled({"settling_time_s": 2.0}) == spec

    def test_from_metrics_adopts_measured_transient(self):
        spec = DesignSpec.from_metrics(self.METRICS, slack=0.1)
        assert spec.slew_v_per_s == pytest.approx(4.5e5)  # floor derated down
        assert spec.settling_time_s == pytest.approx(1.65e-7)  # cap derated up
        assert spec.overshoot_frac == pytest.approx(0.055)
        # Zero overshoot cannot become a positive ceiling -> left unset.
        monotone = replace(self.METRICS, overshoot_frac=0.0)
        assert DesignSpec.from_metrics(monotone).overshoot_frac is None
        # AC-only metrics produce an AC-only spec (pre-transient behavior).
        assert not DesignSpec.from_metrics(PerformanceMetrics(25.0, 5e6, 8e7)).requires_tran

    def test_tighten_spec_preserves_transient_targets(self):
        original = DesignSpec(25.0, 5e6, 8e7, settling_time_s=1e-7, slew_v_per_s=1e6)
        measured = PerformanceMetrics(
            24.0, 4e6, 7e7, slew_v_per_s=5e5, settling_time_s=2e-7, overshoot_frac=0.0
        )
        tightened = tighten_spec(original, original, measured)
        # AC targets tightened...
        assert tightened.gain_db > original.gain_db
        # ...transient targets carried through unchanged (the encoder
        # cannot express them, Stage IV keeps judging the originals).
        assert tightened.settling_time_s == original.settling_time_s
        assert tightened.slew_v_per_s == original.slew_v_per_s


# ----------------------------------------------------------------------
# Requests, cache and serving
# ----------------------------------------------------------------------
class TestTransientRequests:
    def _spec(self, **kwargs):
        return DesignSpec(25.0, 5e6, 8e7, **kwargs)

    def test_transient_spec_pulls_tran_analysis_in(self):
        plain = SizingRequest(topology="5T-OTA", spec=self._spec())
        assert plain.analyses == DEFAULT_ANALYSES
        tran = SizingRequest(
            topology="5T-OTA", spec=self._spec(slew_v_per_s=1e5)
        )
        assert tran.analyses == TRAN_ANALYSES
        explicit = SizingRequest(
            topology="5T-OTA", spec=self._spec(), analyses=("dc", "ac", "tran")
        )
        assert explicit.analyses == TRAN_ANALYSES

    def test_json_round_trip_with_transient_fields(self):
        request = SizingRequest(
            topology="5T-OTA",
            spec=self._spec(slew_v_per_s=1e5, settling_time_s=3e-7),
            id="t1",
        )
        payload = json.loads(request.to_json_line())
        assert payload["slew_v_per_s"] == 1e5
        assert payload["analyses"] == ["dc", "ac", "tran"]
        assert "overshoot_frac" not in payload  # unset targets stay absent
        restored = SizingRequest.from_json_line(request.to_json_line())
        assert restored == request

    def test_ac_only_wire_format_unchanged(self):
        payload = SizingRequest(topology="5T-OTA", spec=self._spec(), id="r").to_json()
        assert set(payload) == {
            "id", "topology", "gain_db", "f3db_hz", "ugf_hz",
            "max_iterations", "rel_tol", "method", "budget", "corners",
        }

    def test_response_json_round_trips_transient_metrics(self):
        response = SizingResponse(
            request_id="r", topology="5T-OTA", success=True,
            widths={"M1": 1e-6},
            metrics=PerformanceMetrics(
                25.0, 5e6, 8e7,
                slew_v_per_s=5e5, settling_time_s=1.5e-7, overshoot_frac=0.0,
            ),
            iterations=1, spice_simulations=1, wall_time_s=0.1,
        )
        restored = SizingResponse.from_json_line(response.to_json_line())
        assert restored == response
        # AC-only responses keep the pre-transient metrics payload.
        plain = SizingResponse(
            request_id="r", topology="5T-OTA", success=True, widths=None,
            metrics=PerformanceMetrics(25.0, 5e6, 8e7),
            iterations=1, spice_simulations=1, wall_time_s=0.1,
        )
        assert set(json.loads(plain.to_json_line())["metrics"]) == {
            "gain_db", "f3db_hz", "ugf_hz",
        }

    def test_cache_keys_never_collide_across_transient_targets(self):
        requests = [
            SizingRequest(topology="5T-OTA", spec=self._spec(), id="a"),
            SizingRequest(topology="5T-OTA", spec=self._spec(), id="b",
                          analyses=("dc", "ac", "tran")),
            SizingRequest(topology="5T-OTA", spec=self._spec(slew_v_per_s=1e5), id="c"),
            SizingRequest(topology="5T-OTA", spec=self._spec(slew_v_per_s=2e5), id="d"),
            SizingRequest(topology="5T-OTA", spec=self._spec(settling_time_s=1e-7), id="e"),
        ]
        keys = {ResultCache.key(r) for r in requests}
        assert len(keys) == len(requests)

    def test_near_duplicate_transfer_revalidates_transient_targets(self):
        cache = ResultCache()
        cached = SizingRequest(
            topology="5T-OTA", spec=self._spec(slew_v_per_s=1e5), id="x"
        )
        response = SizingResponse(
            request_id="x", topology="5T-OTA", success=True,
            widths={"M1": 1e-6},
            metrics=PerformanceMetrics(
                26.0, 6e6, 9e7,
                slew_v_per_s=1.004e5, settling_time_s=1e-7, overshoot_frac=0.0,
            ),
            iterations=1, spice_simulations=1, wall_time_s=0.1,
        )
        cache.put(cached, response)
        # Both near-duplicates quantize onto the cached key (1.00e5), but
        # the cached design's measured slew (1.004e5) only satisfies the
        # looser exact target -- the tighter request must miss.
        tighter = SizingRequest(
            topology="5T-OTA", spec=self._spec(slew_v_per_s=1.0042e5), id="y"
        )
        assert cache.get(tighter) is None
        looser = SizingRequest(
            topology="5T-OTA", spec=self._spec(slew_v_per_s=1.0002e5), id="z"
        )
        assert cache.get(looser) is not None


class TestTransientServing:
    """End-to-end: an engine round measuring and judging transient specs."""

    @pytest.fixture(scope="class")
    def serving(self, nmos_lut, pmos_lut):
        from repro.core.bundle import SizingModel
        from repro.datagen import SequenceBuilder, SequenceConfig
        from repro.datagen.serialize import ParsedParams
        from repro.devices import NMOS_65NM, PMOS_65NM
        from repro.topologies import FiveTransistorOTA

        topology = FiveTransistorOTA()
        measurement = topology.measure(GOOD_WIDTHS["5T-OTA"])
        params = {
            group.name: dict(measurement.device_params[group.name])
            for group in topology.groups
        }

        class _FixedModel(SizingModel):
            def __init__(self):
                builder = SequenceBuilder(topology, SequenceConfig())
                super().__init__(
                    transformer=None, bpe=None, vocab=None,
                    sequence_config=builder.config,
                    builders={topology.name: builder},
                    luts={NMOS_65NM.name: nmos_lut, PMOS_65NM.name: pmos_lut},
                )

            def predict_params(self, topology_name, spec, max_len=None):
                values = {g: dict(p) for g, p in params.items()}
                return ParsedParams(values=values, complete=True), "<fixed>"

            def predict_params_many(self, specs_by_topology, max_len=None):
                return {
                    name: [self.predict_params(name, spec) for spec in specs]
                    for name, specs in specs_by_topology.items()
                }

        engine = SizingEngine(_FixedModel(), cache_size=0)
        engine.adopt_topology(topology)
        widths = engine.widths_from_params(topology, params)
        measured = topology.measure(widths, analyses=TRAN).metrics
        return engine, topology, measured

    def test_success_and_failure_judged_on_transient_targets(self, serving):
        engine, topology, measured = serving
        base = dict(
            gain_db=measured.gain_db * 0.97,
            f3db_hz=measured.f3db_hz * 0.9,
            ugf_hz=measured.ugf_hz * 0.9,
        )
        ok = engine.size(
            SizingRequest(
                topology=topology.name,
                spec=DesignSpec(**base, slew_v_per_s=measured.slew_v_per_s * 0.5),
                max_iterations=1,
            )
        )
        assert ok.success
        assert ok.metrics.has_tran
        assert ok.metrics.slew_v_per_s == pytest.approx(measured.slew_v_per_s)

        impossible = engine.size(
            SizingRequest(
                topology=topology.name,
                spec=DesignSpec(**base, settling_time_s=measured.settling_time_s * 0.01),
                max_iterations=2,
            )
        )
        assert not impossible.success
        assert impossible.metrics is not None  # best iterate still reported
        assert impossible.metrics.has_tran

    def test_plain_requests_unaffected_by_transient_neighbours(self, serving):
        """One batch mixing AC-only and transient requests: the AC-only
        response matches a batch without any transient neighbour."""
        engine, topology, measured = serving
        base = dict(
            gain_db=measured.gain_db * 0.97,
            f3db_hz=measured.f3db_hz * 0.9,
            ugf_hz=measured.ugf_hz * 0.9,
        )
        plain_request = SizingRequest(
            topology=topology.name, spec=DesignSpec(**base), id="plain",
            max_iterations=1,
        )
        mixed = engine.size_batch(
            [
                plain_request,
                SizingRequest(
                    topology=topology.name,
                    spec=DesignSpec(**base, slew_v_per_s=measured.slew_v_per_s * 0.5),
                    id="tran", max_iterations=1,
                ),
            ]
        )
        alone = engine.size_batch([replace(plain_request, id="plain")])
        by_id = {r.request_id: r for r in mixed}
        assert by_id["plain"].success and by_id["tran"].success
        assert not by_id["plain"].metrics.has_tran
        assert by_id["tran"].metrics.has_tran
        assert by_id["plain"].widths == alone[0].widths
        assert np.array_equal(
            by_id["plain"].metrics.as_array(), alone[0].metrics.as_array()
        )

    def test_solver_method_honors_analyses_selector(self, serving):
        """A registry-dispatched solver (method != copilot) with
        ``analyses=tran`` on an AC-only spec must measure and report the
        transient metrics the CLI flag promises."""
        engine, topology, measured = serving
        spec = DesignSpec(
            gain_db=measured.gain_db * 0.9,
            f3db_hz=measured.f3db_hz * 0.5,
            ugf_hz=measured.ugf_hz * 0.5,
        )
        response = engine.size(
            SizingRequest(
                topology=topology.name, spec=spec, method="pso", budget=20,
                analyses=("dc", "ac", "tran"),
            )
        )
        assert response.method == "pso"
        assert response.error is None
        assert response.metrics is not None
        assert response.metrics.has_tran
        # ...and without the selector the solver path stays AC-only.
        plain = engine.size(
            SizingRequest(topology=topology.name, spec=spec, method="pso", budget=20)
        )
        assert plain.metrics is not None and not plain.metrics.has_tran

    def test_solver_rel_tol_loosens_transient_caps(self):
        """The solver path's derated spec must loosen max targets *up*,
        matching Stage IV's satisfied(rel_tol=...) semantics."""
        spec = DesignSpec(
            25.0, 5e6, 8e7,
            slew_v_per_s=1e6, settling_time_s=1e-7, overshoot_frac=0.1,
        )
        derated = spec.derated(0.02)
        assert derated.gain_db == pytest.approx(25.0 * 0.98)
        assert derated.slew_v_per_s == pytest.approx(1e6 * 0.98)  # floor down
        assert derated.settling_time_s == pytest.approx(1e-7 * 1.02)  # cap up
        assert derated.overshoot_frac == pytest.approx(0.1 * 1.02)
        assert spec.derated(0.0) == spec
        # A metric exactly at the loosened boundary passes both judgments.
        boundary = PerformanceMetrics(
            25.0, 5e6, 8e7,
            slew_v_per_s=1e6 * 0.99, settling_time_s=1e-7 * 1.01, overshoot_frac=0.1,
        )
        assert spec.satisfied(boundary, rel_tol=0.02)
        assert derated.satisfied(boundary)

    def test_objective_scores_transient_shortfall(self, serving):
        _, topology, measured = serving
        spec = DesignSpec(
            gain_db=measured.gain_db * 0.9,
            f3db_hz=measured.f3db_hz * 0.5,
            ugf_hz=measured.ugf_hz * 0.5,
            settling_time_s=measured.settling_time_s * 0.01,  # unreachable cap
        )
        objective = SearchObjective(topology, spec)
        point = np.full(objective.space.dimension, 0.5)
        value = float(objective.evaluate_many(point[None, :])[0])
        assert value > 0.0  # AC passes, the settling cap binds


class TestTransientGateServing:
    """The transient gate in a measured-oracle copilot round at tt/ss/ff
    with transient targets, and in the solvers' objective."""

    @pytest.fixture(scope="class")
    def pvt_oracle(self, five_t, nmos_lut, pmos_lut):
        population = make_population(five_t, 8, seed=3)
        sweeps = five_t.measure_many(population, corners=PVT, analyses=TRAN)
        records = []
        for k, (widths, sweep) in enumerate(zip(population, sweeps, strict=True)):
            assert sweep.ok
            by_corner = sweep.metrics_by_corner()
            if k % 2 == 0:
                # Each metric at its worst corner, derated 5%: met everywhere.
                worst = PerformanceMetrics(
                    *(min(getattr(m, name) for m in by_corner.values()) for name in AC_NAMES),
                    slew_v_per_s=min(m.slew_v_per_s for m in by_corner.values()),
                    settling_time_s=max(m.settling_time_s for m in by_corner.values()),
                )
                spec = DesignSpec.from_metrics(worst, slack=0.05)
            else:
                # The nominal metrics at every corner: SS cannot reach them.
                spec = DesignSpec.from_metrics(by_corner["tt"])
            # The oracle decodes a spec to the device parameters of the
            # record nearest to it: this design's, until a retry tightens it.
            nominal = five_t.measure(widths)
            records.append(SimpleNamespace(
                gain_db=spec.gain_db, f3db_hz=spec.f3db_hz, ugf_hz=spec.ugf_hz,
                spec=spec, device_params=nominal.device_params,
            ))
        model = BatchedOracleModel(
            five_t, records, {NMOS_65NM.name: nmos_lut, PMOS_65NM.name: pmos_lut}
        )
        requests = [
            SizingRequest(
                topology=five_t.name, spec=record.spec, id=f"pvt-{i}", max_iterations=2,
                corners=PVT,
            )
            for i, record in enumerate(records)
        ]
        return model, requests

    @staticmethod
    def _serve(model, requests, topology, backend=None):
        engine = SizingEngine(model, cache_size=0, backend=backend)
        engine.adopt_topology(topology)
        return engine, engine.size_batch(requests)

    def test_gated_round_keeps_every_verdict(self, five_t, pvt_oracle):
        model, requests = pvt_oracle
        _, gated = self._serve(model, requests, five_t)
        _, ungated = self._serve(model, requests, five_t, UngatedBackend())
        assert {response.success for response in gated} == {True, False}

        def wire(response):
            payload = response.to_json()
            del payload["wall_time_s"]
            return payload

        for got, reference in zip(gated, ungated, strict=True):
            for name in ("success", "iterations", "widths", "decoded_texts", "spice_simulations"):
                assert getattr(got, name) == getattr(reference, name)
            if got.success:
                assert wire(got) == wire(reference)
                continue
            # A failed response reports the AC metrics of its best iterate
            # and no transient field.
            assert reference.metrics.has_tran and not got.metrics.has_tran
            assert set(got.corner_metrics) == set(reference.corner_metrics)
            for name, metrics in got.corner_metrics.items():
                assert not metrics.has_tran
                assert np.array_equal(
                    metrics.as_array(), reference.corner_metrics[name].as_array()
                )

    def test_tran_skipped_counts_the_skipped_transients(self, five_t, pvt_oracle, monkeypatch):
        model, requests = pvt_oracle
        items = []

        def counting(solutions, **kwargs):
            items.append(len(solutions))
            return run_tran_many(solutions, **kwargs)

        monkeypatch.setattr(topology_base, "run_tran_many", counting)
        gated_engine, gated = self._serve(model, requests, five_t)
        gated_items = sum(items)
        items.clear()
        ungated_engine, _ = self._serve(model, requests, five_t, UngatedBackend())
        ungated_items = sum(items)

        skipped = gated_engine.stats.tran_skipped
        assert skipped == gated_engine.stats.as_dict()["tran_skipped"]
        # Every round of a failed request missed an AC target somewhere.
        assert skipped == len(PVT) * sum(r.iterations for r in gated if not r.success)
        assert gated_items > 0 and gated_items + skipped == ungated_items
        assert ungated_engine.stats.tran_skipped == 0

    def test_ac_failing_round_with_diverging_transient_is_verified(self, pvt_oracle):
        """Without the gate, an AC-failing candidate whose transient
        diverges fails its sweep, so its round verifies nothing and is
        nudged; with the gate its AC verdict counts."""
        model, requests = pvt_oracle
        request = replace(requests[1], max_iterations=1)
        topology = _DivergingTranFiveT()
        (gated,) = self._serve(model, [request], topology)[1]
        (ungated,) = self._serve(model, [request], topology, UngatedBackend())[1]
        assert not gated.success and not ungated.success
        assert ungated.spice_simulations == 0 and ungated.metrics is None
        assert gated.spice_simulations == len(PVT)
        assert gated.metrics is not None and not gated.metrics.has_tran

    @staticmethod
    def _points(topology, count=10, seed=5):
        space = SearchSpace(topology)
        rng = np.random.default_rng(seed)
        return [space.random_point(rng) for _ in range(count)]

    def test_search_objective_unchanged_on_ac_only_spec(self, five_t):
        spec = DesignSpec(23.0, 1e6, 1.5e7)
        points = self._points(five_t)
        gated = SearchObjective(five_t, spec, corners=PVT, analyses=TRAN)
        ungated = SearchObjective(
            five_t, spec, backend=UngatedBackend(), corners=PVT, analyses=TRAN
        )
        values = gated.evaluate_many(points)
        assert np.array_equal(values, ungated.evaluate_many(points))
        assert 0.0 in values and values.max() > 0.0  # the population mixes both
        assert gated.history == ungated.history
        assert gated.best_value == ungated.best_value
        assert gated.best_widths == ungated.best_widths
        assert gated.best_worst_corner == ungated.best_worst_corner
        assert gated.best_metrics == ungated.best_metrics  # it met AC: transient ran
        assert gated.best_corner_metrics == ungated.best_corner_metrics

    def test_gated_candidate_scores_ac_shortfall_plus_one_per_transient_target(self, five_t):
        spec = DesignSpec(23.0, 1e6, 1.5e7, slew_v_per_s=1e5, settling_time_s=1e-6)
        points = self._points(five_t)
        gated = SearchObjective(five_t, spec, corners=PVT)
        values = gated.evaluate_many(points)
        reference = SearchObjective(five_t, spec, backend=UngatedBackend(), corners=PVT)
        ungated_values = reference.evaluate_many(points)
        sweeps = BatchedBackend().measure_sweeps(
            five_t, [gated.space.decode(p) for p in points], resolve_corners(PVT), TRAN_ANALYSES
        )
        gated_count = 0
        for value, ungated_value, sweep in zip(values, ungated_values, sweeps, strict=True):
            by_corner = sweep.metrics_by_corner().values()
            if all(spec.ac_satisfied(metrics) for metrics in by_corner):
                assert value == ungated_value
                continue
            gated_count += 1
            ac_only = [PerformanceMetrics(m.gain_db, m.f3db_hz, m.ugf_hz) for m in by_corner]
            assert value == max(sum(spec.miss_fractions(m).values()) for m in ac_only)
            ac_shortfall = max(
                sum(spec.miss_fractions(m)[name] for name in AC_NAMES) for m in ac_only
            )
            assert value == pytest.approx(ac_shortfall + 2.0)
        assert 0 < gated_count < len(points)
