"""Tests of the netlist container and the DC sweep utilities."""

import numpy as np
import pytest

from repro.devices import NMOS_65NM, PMOS_65NM
from repro.spice import Circuit, characterize_device, icmr_sweep, to_spice
from repro.spice.netlist import GROUND
from repro.topologies import topology_by_name

from tests import scalar_reference
from tests.conftest import GOOD_WIDTHS


class TestCircuitContainer:
    def test_node_collection_order_and_ground(self):
        circuit = Circuit("c")
        circuit.add_vsource("V1", "a", "0", 1.0)
        circuit.add_resistor("R1", "a", "b", 1e3)
        circuit.add_resistor("R2", "b", "gnd", 1e3)
        assert circuit.nodes() == ["a", "b"]
        assert GROUND not in circuit.nodes()

    def test_duplicate_names_rejected(self):
        circuit = Circuit("c")
        circuit.add_resistor("R1", "a", "b", 1e3)
        with pytest.raises(ValueError):
            circuit.add_capacitor("R1", "a", "b", 1e-12)

    def test_invalid_element_values_rejected(self):
        circuit = Circuit("c")
        with pytest.raises(ValueError):
            circuit.add_resistor("R", "a", "b", -1.0)
        with pytest.raises(ValueError):
            circuit.add_capacitor("C", "a", "b", -1e-12)

    def test_lookup_helpers(self):
        circuit = Circuit("c")
        circuit.add_vsource("V1", "a", "0", 1.0)
        circuit.add_mosfet("M1", "a", "a", "0", NMOS_65NM, 1e-6, 180e-9)
        assert circuit.vsource("V1").dc == 1.0
        assert circuit.mosfet("M1").width == 1e-6
        with pytest.raises(KeyError):
            circuit.mosfet("MX")
        with pytest.raises(KeyError):
            circuit.vsource("VX")

    def test_set_widths(self):
        circuit = Circuit("c")
        circuit.add_mosfet("M1", "a", "b", "0", NMOS_65NM, 1e-6, 180e-9)
        circuit.set_widths({"M1": 2e-6})
        assert circuit.mosfet("M1").width == 2e-6
        with pytest.raises(ValueError):
            circuit.set_widths({"M1": -2e-6})

    def test_copy_is_independent(self):
        circuit = Circuit("c")
        circuit.add_vsource("V1", "a", "0", 1.0)
        circuit.add_mosfet("M1", "a", "a", "0", NMOS_65NM, 1e-6, 180e-9)
        dup = circuit.copy()
        dup.vsource("V1").dc = 2.0
        dup.mosfet("M1").width = 9e-6
        assert circuit.vsource("V1").dc == 1.0
        assert circuit.mosfet("M1").width == 1e-6

    def test_copy_rebuilds_elements_without_name_checks(self, monkeypatch):
        """Copying checks no element name (the source's are unique), gives
        fresh elements with shared tech params and keeps the corner."""
        circuit = topology_by_name("TELE-OTA").build_circuit(GOOD_WIDTHS["TELE-OTA"], corner="ss")
        calls = []
        element_names = Circuit.element_names
        monkeypatch.setattr(
            Circuit, "element_names", lambda self: calls.append(self) or element_names(self)
        )
        dup = circuit.copy()
        assert calls == []
        assert to_spice(dup) == to_spice(circuit) and dup.corner is circuit.corner
        groups = ("mosfets", "resistors", "capacitors", "vsources", "isources")
        for group in groups:
            for original, copied in zip(getattr(circuit, group), getattr(dup, group), strict=True):
                assert copied is not original
        for original, copied in zip(circuit.mosfets, dup.mosfets, strict=True):
            assert copied.tech is original.tech
        before = [[vars(e).copy() for e in getattr(circuit, group)] for group in groups]
        dup.mosfets[0].width *= 2
        dup.vsources[0].dc += 1.0
        dup.add_resistor("RX", dup.nodes()[0], "0", 1e3)
        assert [[vars(e) for e in getattr(circuit, group)] for group in groups] == before
        with pytest.raises(ValueError, match="duplicate"):
            dup.add_resistor("RX", "a", "0", 1e3)


class TestCharacterization:
    def test_testbench_matches_direct_model(self):
        """Direct model evaluation equals the per-point testbench solve of
        the scalar reference bit for bit, for both device types."""
        grid = np.arange(0.0, 1.21, 0.3)
        for tech in (NMOS_65NM, PMOS_65NM):
            via_testbench = scalar_reference.characterize_device(tech, grid, grid)
            direct = characterize_device(tech, vgs_grid=grid, vds_grid=grid)
            for name in direct.OUTPUTS:
                assert np.array_equal(via_testbench.tables[name], direct.tables[name]), (
                    tech.name, name,
                )

    def test_pmos_characterization_positive(self):
        grid = np.arange(0.0, 1.21, 0.4)
        result = scalar_reference.characterize_device(PMOS_65NM, grid, grid)
        assert np.all(result.tables["id"] >= -1e-18)
        assert np.all(result.tables["gm"] >= -1e-18)

    def test_per_unit_width_normalization(self):
        grid = np.arange(0.0, 1.21, 0.6)
        narrow = characterize_device(NMOS_65NM, reference_width=700e-9, vgs_grid=grid, vds_grid=grid)
        wide = characterize_device(NMOS_65NM, reference_width=7e-6, vgs_grid=grid, vds_grid=grid)
        for name in narrow.OUTPUTS:
            np.testing.assert_allclose(narrow.tables[name], wide.tables[name], rtol=1e-10)


class TestSweeps:
    def test_icmr_sweep_on_5t(self, five_t):
        widths = {"M1": 1.2e-6, "M3": 15e-6, "M5": 4e-6}
        circuit = five_t.build(widths)
        result = icmr_sweep(circuit, ["VINP", "VINN"], np.linspace(0.3, 1.1, 9))
        assert result.converged.any()
        assert result.all_saturated.any()
        assert result.contains(0.6)
        # Extremes of the common-mode range must fail.
        assert not result.all_saturated[0] or not result.all_saturated[-1]

    def test_icmr_range_endpoints(self, five_t):
        widths = {"M1": 1.2e-6, "M3": 15e-6, "M5": 4e-6}
        circuit = five_t.build(widths)
        result = icmr_sweep(circuit, ["VINP", "VINN"], np.linspace(0.4, 0.9, 6))
        assert result.low - 1e-9 <= 0.6 <= result.high + 1e-9
