"""Tests of the nonlinear DC operating-point solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import NMOS_65NM, PMOS_65NM
from repro.spice import Circuit, ConvergenceError, run_tran_many, solve_dc, solve_dc_many
from repro.topologies import topology_by_name

from tests import scalar_reference
from tests.conftest import GOOD_WIDTHS, make_population

L = 180e-9


def resistor_divider(r1=1e3, r2=3e3, vin=1.2):
    circuit = Circuit("divider")
    circuit.add_vsource("VIN", "in", "0", vin)
    circuit.add_resistor("R1", "in", "mid", r1)
    circuit.add_resistor("R2", "mid", "0", r2)
    return circuit


class TestLinearCircuits:
    def test_resistor_divider_voltage(self):
        solution = solve_dc(resistor_divider())
        assert solution.voltage("mid") == pytest.approx(1.2 * 3.0 / 4.0, rel=1e-9)

    def test_source_current(self):
        solution = solve_dc(resistor_divider())
        # SPICE convention: the branch current of a sourcing supply is
        # negative (it flows out of the + terminal into the circuit).
        assert solution.source_currents["VIN"] == pytest.approx(-0.3e-3, rel=1e-4)

    def test_current_source_into_resistor(self):
        circuit = Circuit("ir")
        circuit.add_resistor("R", "n", "0", 10e3)
        circuit.add_isource("I1", "0", "n", 1e-3)  # pulls 1 mA out of ground into n
        solution = solve_dc(circuit)
        assert solution.voltage("n") == pytest.approx(10.0, rel=1e-6)

    def test_ground_alias(self):
        circuit = Circuit("alias")
        circuit.add_vsource("V1", "a", "gnd", 1.0)
        circuit.add_resistor("R", "a", "GND", 1e3)
        solution = solve_dc(circuit)
        assert solution.voltage("a") == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        r1=st.floats(min_value=10.0, max_value=1e6),
        r2=st.floats(min_value=10.0, max_value=1e6),
        vin=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_divider_property(self, r1, r2, vin):
        if abs(vin) < 1e-6:
            return
        solution = solve_dc(resistor_divider(r1, r2, vin))
        expected = vin * r2 / (r1 + r2)
        assert solution.voltage("mid") == pytest.approx(expected, rel=1e-6)

    def test_kcl_residual_small(self):
        solution = solve_dc(resistor_divider())
        assert solution.kcl_residual() < 1e-9


class TestNonlinearCircuits:
    def test_diode_connected_nmos(self):
        circuit = Circuit("diode")
        circuit.add_vsource("VDD", "vdd", "0", 1.2)
        circuit.add_resistor("R", "vdd", "d", 20e3)
        circuit.add_mosfet("M", "d", "d", "0", NMOS_65NM, 5e-6, L)
        solution = solve_dc(circuit)
        vd = solution.voltage("d")
        assert 0.3 < vd < 0.8  # around a Vgs drop
        # KCL: resistor current equals device current.
        device = circuit.mosfet("M")
        i_res = (1.2 - vd) / 20e3
        assert device.ids(vd, vd, 0.0) == pytest.approx(i_res, rel=1e-6)

    def test_common_source_operating_point(self):
        circuit = Circuit("cs")
        circuit.add_vsource("VDD", "vdd", "0", 1.2)
        circuit.add_vsource("VG", "g", "0", 0.55)
        circuit.add_resistor("RL", "vdd", "d", 20e3)
        circuit.add_mosfet("M", "d", "g", "0", NMOS_65NM, 5e-6, L)
        solution = solve_dc(circuit)
        assert 0.0 < solution.voltage("d") < 1.2
        op = solution.op("M")
        assert op.small_signal.gm > 0

    def test_initial_guess_independence(self, five_t):
        widths = {"M1": 1.2e-6, "M3": 15e-6, "M5": 4e-6}
        circuit = five_t.build(widths)
        sol_a = solve_dc(circuit, initial_guess=five_t.initial_guess())
        sol_b = solve_dc(circuit, initial_guess={n: 0.9 for n in circuit.nodes()})
        for node in circuit.nodes():
            assert sol_a.voltage(node) == pytest.approx(sol_b.voltage(node), abs=1e-6)

    def test_operating_points_recorded_for_all_devices(self, five_t_measurement):
        ops = five_t_measurement.dc.operating_points
        assert set(ops) == {"M1", "M2", "M3", "M4", "M5"}

    def test_symmetric_ota_has_symmetric_op(self, five_t_measurement):
        dc = five_t_measurement.dc
        # Perfect matching + equal inputs -> mirror symmetry of the OP.
        assert dc.voltage("d1") == pytest.approx(dc.voltage("out"), abs=1e-6)

    def test_pmos_source_follower(self):
        circuit = Circuit("psf")
        circuit.add_vsource("VDD", "vdd", "0", 1.2)
        circuit.add_vsource("VG", "g", "0", 0.4)
        circuit.add_mosfet("M", "0", "g", "s", PMOS_65NM, 10e-6, L)
        circuit.add_resistor("RS", "vdd", "s", 50e3)
        solution = solve_dc(circuit)
        # Source should sit roughly a |Vgs| above the gate.
        assert solution.voltage("s") > 0.4


class TestRobustness:
    def test_floating_node_is_conditioned_by_gmin(self):
        circuit = Circuit("float")
        circuit.add_vsource("V1", "a", "0", 1.0)
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_capacitor("C1", "b", "c", 1e-12)  # c floats in DC
        circuit.add_resistor("R2", "c", "0", 1e3)
        solution = solve_dc(circuit)
        assert solution.voltage("c") == pytest.approx(0.0, abs=1e-6)

    def test_solution_strategy_reported(self):
        solution = solve_dc(resistor_divider())
        assert solution.strategy in ("newton", "gmin-stepping", "source-stepping")


class TestSolveDCMany:
    def _cs_stage(self, width):
        circuit = Circuit("cs")
        circuit.add_vsource("VDD", "vdd", "0", 1.2)
        circuit.add_vsource("VIN", "g", "0", 0.55)
        circuit.add_resistor("RL", "vdd", "d", 20e3)
        circuit.add_mosfet("M", "d", "g", "0", NMOS_65NM, width, L)
        return circuit

    def test_bitwise_matches_scalar_over_width_batch(self):
        widths = [1e-6, 2e-6, 5e-6, 12e-6, 30e-6]
        batched = solve_dc_many([self._cs_stage(w) for w in widths])
        for width, solution in zip(widths, batched, strict=True):
            reference = scalar_reference.solve_dc(self._cs_stage(width))
            assert solution.node_voltages == reference.node_voltages
            assert solution.source_currents == reference.source_currents
            assert solution.iterations == reference.iterations
            assert solution.strategy == reference.strategy

    def test_mosfet_free_batch(self):
        """A structure group with no MOSFETs (nothing to vectorize) still
        solves every candidate."""
        solutions = solve_dc_many([resistor_divider(), resistor_divider()])
        assert len(solutions) == 2
        for solution in solutions:
            assert solution.voltage("mid") == pytest.approx(1.2 * 3.0 / 4.0, rel=1e-9)

    def test_mixed_structures_are_grouped(self):
        """Structurally different circuits in one call still all solve."""
        mixed = [self._cs_stage(2e-6), resistor_divider(), self._cs_stage(5e-6)]
        solutions = solve_dc_many(mixed)
        assert solutions[1].voltage("mid") == pytest.approx(1.2 * 3.0 / 4.0, rel=1e-9)
        assert solutions[0].node_voltages == scalar_reference.solve_dc(self._cs_stage(2e-6)).node_voltages
        assert solutions[2].node_voltages == scalar_reference.solve_dc(self._cs_stage(5e-6)).node_voltages

    @pytest.mark.parametrize(
        "max_iterations, corners, known_good, strategies",
        [
            (5, ("tt",), ("source-stepping", 48), {"newton", "source-stepping", "failed"}),
            (8, ("tt", "ss", "ff"), ("newton", 6), {"newton", "gmin-stepping", "source-stepping"}),
        ],
    )
    def test_continuation_bit_identical_to_scalar(
        self, max_iterations, corners, known_good, strategies
    ):
        """One TELE-OTA batch whose candidates end in different strategies:
        at ``max_iterations=5`` plain Newton, source stepping (the
        known-good design, 48 iterations) and failure of every strategy;
        the corner-mixed batch at 8 adds gmin stepping.  Each candidate's
        outcome equals the scalar reference's, bit for bit."""
        tele = topology_by_name("TELE-OTA")
        population = [GOOD_WIDTHS["TELE-OTA"], *make_population(tele, 6, seed=4)]
        circuits = [tele.build_circuit(w, corner=c) for w in population for c in corners]
        guesses = [tele.initial_guess_for(c) for _ in population for c in corners]
        batched = solve_dc_many(circuits, initial_guess=guesses, max_iterations=max_iterations)
        assert (batched[0].strategy, batched[0].iterations) == known_good
        seen = set()
        for circuit, guess, outcome in zip(circuits, guesses, batched, strict=True):
            try:
                reference = scalar_reference.solve_dc(circuit, guess, max_iterations)
            except ConvergenceError as error:
                assert isinstance(outcome, ConvergenceError)
                assert str(outcome) == str(error)
                seen.add("failed")
                continue
            assert outcome.node_voltages == reference.node_voltages
            assert outcome.source_currents == reference.source_currents
            assert outcome.iterations == reference.iterations
            assert outcome.strategy == reference.strategy
            seen.add(outcome.strategy)
        assert seen == strategies

    def test_empty_circuit_shares_a_call_with_a_real_one(self):
        """A circuit with no unknowns gets its own structure group and
        solves, in both bulk kernels, without failing its call neighbour."""
        five_t = topology_by_name("5T-OTA")
        circuits = [Circuit("empty"), five_t.build(GOOD_WIDTHS["5T-OTA"])]
        empty, ota = solve_dc_many(circuits, initial_guess=[None, five_t.initial_guess()])
        assert empty.node_voltages == {} and empty.strategy == "newton"
        assert ota.strategy == "newton"
        flat, step = run_tran_many([empty, ota], t_stop=50e-9, n_steps=10)
        assert flat.waveforms.shape == (11, 0)
        assert np.isfinite(step.voltage("out")).all()
