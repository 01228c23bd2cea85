"""Tests of the circuit-level MOSFET wrapper (polarity mapping etc.)."""

import pytest

from repro.devices import MOSFET, NMOS_65NM, PMOS_65NM

L = 180e-9


@pytest.fixture
def nmos():
    return MOSFET(name="MN", drain="d", gate="g", source="s", tech=NMOS_65NM, width=5e-6, length=L)


@pytest.fixture
def pmos():
    return MOSFET(name="MP", drain="d", gate="g", source="s", tech=PMOS_65NM, width=5e-6, length=L)


class TestPolarityMapping:
    def test_nmos_normalized_bias(self, nmos):
        vgs, vds = nmos.normalized_bias(vd=0.8, vg=0.6, vs=0.1)
        assert vgs == pytest.approx(0.5)
        assert vds == pytest.approx(0.7)

    def test_pmos_normalized_bias(self, pmos):
        # PMOS with source at 1.2 V: Vsg and Vsd become positive.
        vgs, vds = pmos.normalized_bias(vd=0.5, vg=0.6, vs=1.2)
        assert vgs == pytest.approx(0.6)
        assert vds == pytest.approx(0.7)

    def test_nmos_current_positive_drain_to_source(self, nmos):
        assert nmos.ids(vd=0.8, vg=0.7, vs=0.0) > 0

    def test_pmos_current_negative_drain_to_source(self, pmos):
        # PMOS channel current flows source->drain, so i_ds < 0.
        assert pmos.ids(vd=0.4, vg=0.5, vs=1.2) < 0

    def test_conductances_positive_for_both_polarities(self, nmos, pmos):
        gm_n, gds_n = nmos.conductances(vd=0.8, vg=0.7, vs=0.0)
        gm_p, gds_p = pmos.conductances(vd=0.4, vg=0.5, vs=1.2)
        assert gm_n > 0 and gds_n > 0
        assert gm_p > 0 and gds_p > 0

    def test_jacobian_identity_matches_finite_difference(self, pmos):
        """d(i_ds)/dvg == gm and d(i_ds)/dvd == gds in the circuit frame."""
        vd, vg, vs = 0.4, 0.5, 1.2
        eps = 1e-7
        gm, gds = pmos.conductances(vd, vg, vs)
        dg = (pmos.ids(vd, vg + eps, vs) - pmos.ids(vd, vg - eps, vs)) / (2 * eps)
        dd = (pmos.ids(vd + eps, vg, vs) - pmos.ids(vd - eps, vg, vs)) / (2 * eps)
        assert dg == pytest.approx(gm, rel=1e-5)
        assert dd == pytest.approx(gds, rel=1e-5)


class TestOperatingPoint:
    def test_regions(self, nmos):
        weak = nmos.operating_point(vd=0.6, vg=0.3, vs=0.0)
        strong = nmos.operating_point(vd=1.1, vg=1.1, vs=0.0)
        assert weak.region == "weak"
        assert strong.region == "strong"

    def test_saturation_flag(self, nmos):
        sat = nmos.operating_point(vd=1.0, vg=0.6, vs=0.0)
        triode = nmos.operating_point(vd=0.05, vg=0.8, vs=0.0)
        assert sat.saturated
        assert not triode.saturated

    def test_small_signal_bundle_consistent(self, nmos):
        op = nmos.operating_point(vd=0.8, vg=0.6, vs=0.0)
        arr = op.small_signal.as_array()
        assert arr.shape == (5,)
        assert op.small_signal.id == pytest.approx(arr[0])
        assert op.small_signal.cgs == pytest.approx(arr[4])


class TestConstruction:
    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ValueError):
            MOSFET("M", "d", "g", "s", NMOS_65NM, width=-1e-6, length=L)
        with pytest.raises(ValueError):
            MOSFET("M", "d", "g", "s", NMOS_65NM, width=1e-6, length=0.0)

    def test_with_width_copies(self, nmos):
        wider = nmos.with_width(10e-6)
        assert wider.width == 10e-6
        assert nmos.width == 5e-6
        assert wider.name == nmos.name

    def test_equality_compares_fields_not_model_instances(self, nmos):
        assert nmos.with_width(nmos.width) == nmos
        assert nmos.with_width(2 * nmos.width) != nmos


@pytest.mark.parametrize("corner", ["tt", "ss"])
def test_built_circuits_equal_their_copies(corner):
    """Each MOSFET's EKV model is a per-instance object derived from its
    tech, so it takes no part in equality: a copied circuit equals its
    original and a device equals its same-width copy."""
    from repro.topologies import available_topologies, topology_by_name

    for name in available_topologies():
        topology = topology_by_name(name)
        circuit = topology.build_circuit(topology.nominal_widths(), corner=corner)
        assert circuit.copy() == circuit, name
        for device in circuit.mosfets:
            assert device.with_width(device.width) == device, (name, device.name)
