"""Edge-case and failure-injection tests across the substrates."""

import numpy as np
import pytest

from repro.devices import NMOS_65NM
from repro.dpsfg import MasonEvaluator, build_dpsfg
from repro.spice import Circuit, ConvergenceError, solve_dc
from repro.spice.plan import StampPlan


class TestDCSolverFailurePaths:
    def test_convergence_error_when_budget_exhausted(self, five_t):
        """With a 1-iteration Newton budget every strategy must fail and
        the solver must raise rather than return garbage."""
        circuit = five_t.build({"M1": 1.2e-6, "M3": 15e-6, "M5": 4e-6})
        with pytest.raises(ConvergenceError, match="all strategies"):
            solve_dc(circuit, max_iterations=1)

    def test_singular_system_falls_back_to_lstsq(self):
        """Two identical parallel voltage sources make the MNA matrix
        singular; the solver must still produce the obvious solution."""
        circuit = Circuit("parallel_sources")
        circuit.add_vsource("V1", "a", "0", 1.0)
        circuit.add_vsource("V2", "a", "0", 1.0)
        circuit.add_resistor("R", "a", "0", 1e3)
        solution = solve_dc(circuit)
        assert solution.voltage("a") == pytest.approx(1.0, abs=1e-6)

    def test_empty_circuit(self):
        solution = solve_dc(Circuit("empty"))
        assert solution.node_voltages == {}

    def test_mna_pack_unpack_roundtrip(self, five_t):
        circuit = five_t.build({"M1": 1.2e-6, "M3": 15e-6, "M5": 4e-6})
        plan = StampPlan([circuit, circuit])
        voltages = {name: float(i) / 10 for i, name in enumerate(circuit.nodes())}
        currents = {src.name: 1e-6 * i for i, src in enumerate(circuit.vsources)}
        packed = plan.pack([voltages, {}], [currents, {}])
        assert packed.shape == (2, plan.size + 1)
        assert not packed[1].any()  # absent names read 0, ground column stays 0
        assert plan.unpack(packed)[0] == (voltages, currents)


class TestMasonEdgeCases:
    def test_loopless_graph(self):
        """A plain RC divider SFG has no loops; Delta must be exactly 1."""
        circuit = Circuit("rc")
        circuit.add_vsource("VIN", "in", "0", 0.0, ac=1.0)
        circuit.add_resistor("R", "in", "mid", 1e3)
        circuit.add_capacitor("C", "mid", "0", 1e-12)
        sfg = build_dpsfg(circuit, "mid")
        evaluator = MasonEvaluator(sfg)
        assert evaluator.loops == []
        delta = evaluator.determinant(1j, sfg.merged_env())
        assert delta == pytest.approx(1.0)

    def test_unknown_excitation_rejected(self):
        circuit = Circuit("rc")
        circuit.add_vsource("VIN", "in", "0", 0.0, ac=1.0)
        circuit.add_resistor("R", "in", "mid", 1e3)
        circuit.add_capacitor("C", "mid", "0", 1e-12)
        sfg = build_dpsfg(circuit, "mid")
        from repro.dpsfg import forward_paths

        with pytest.raises(KeyError):
            forward_paths(sfg, "Vnope")

    def test_zero_gain_for_disconnected_source(self):
        """An excitation with no path to the output contributes nothing."""
        circuit = Circuit("two_islands")
        circuit.add_vsource("VIN", "in", "0", 0.0, ac=1.0)
        circuit.add_resistor("R1", "in", "mid", 1e3)
        circuit.add_capacitor("C1", "mid", "0", 1e-12)
        # A second, galvanically isolated island observed at "mid".
        circuit.add_isource("IX", "0", "island", 0.0, ac=1.0)
        circuit.add_resistor("R2", "island", "0", 1e3)
        sfg = build_dpsfg(circuit, "mid")
        evaluator = MasonEvaluator(sfg)
        assert evaluator.gain("IX", 1j) == pytest.approx(0.0)

    def test_dpsfg_handles_multiple_isources(self):
        circuit = Circuit("multi_i")
        circuit.add_resistor("R1", "n", "0", 1e3)
        circuit.add_isource("I1", "0", "n", 0.0, ac=1.0)
        circuit.add_isource("I2", "0", "n", 0.0, ac=0.5)
        sfg = build_dpsfg(circuit, "n")
        evaluator = MasonEvaluator(sfg)
        # Superposition: 1.5 total AC amps into 1k.
        assert evaluator.transfer(1j) == pytest.approx(1500.0)


class TestDeviceEdgeCases:
    def test_zero_vgs_currents_tiny(self):
        from repro.devices import EKVModel

        model = EKVModel(NMOS_65NM)
        leakage = float(model.drain_current(0.0, 1.2, 1e-6, 180e-9))
        on_current = float(model.drain_current(1.2, 1.2, 1e-6, 180e-9))
        assert leakage < on_current * 1e-4
        assert leakage > 0  # subthreshold conduction, not hard zero

    def test_vectorized_evaluation_shapes(self):
        from repro.devices import EKVModel

        model = EKVModel(NMOS_65NM)
        vgs = np.linspace(0, 1.2, 5)[:, None]
        vds = np.linspace(0, 1.2, 7)[None, :]
        values = model.evaluate_all(vgs, vds, 1e-6, 180e-9)
        for table in values.values():
            assert np.asarray(table).shape == (5, 7)
