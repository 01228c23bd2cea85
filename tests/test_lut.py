"""Tests of the precomputed LUT and the Algorithm 1 width estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import EKVModel, NMOS_65NM, PMOS_65NM
from repro.lut import LUT_OUTPUTS, DeviceParams, LookupTable, build_lut, estimate_width

from tests import scalar_reference

L = 180e-9


class TestLookupTable:
    def test_grid_matches_paper(self, nmos_lut):
        # 0 to 1.2 V in 60 mV steps -> 21 points per axis.
        assert len(nmos_lut.vgs_grid) == 21
        assert len(nmos_lut.vds_grid) == 21
        assert nmos_lut.vgs_grid[1] - nmos_lut.vgs_grid[0] == pytest.approx(0.06)
        assert nmos_lut.reference_width == pytest.approx(700e-9)

    def test_on_grid_queries_exact(self, nmos_lut):
        model = EKVModel(NMOS_65NM)
        vgs, vds = 0.6, 0.6
        per_width = nmos_lut.query("gm", vgs, vds)
        direct = model.transconductance(vgs, vds, 700e-9, L) / 700e-9
        assert float(per_width) == pytest.approx(float(direct), rel=1e-9)

    def test_spline_accuracy_off_grid(self, nmos_lut):
        """Cubic interpolation must track the model between grid points."""
        model = EKVModel(NMOS_65NM)
        rng = np.random.default_rng(0)
        for _ in range(30):
            vgs = float(rng.uniform(0.2, 1.1))
            vds = float(rng.uniform(0.1, 1.1))
            interpolated = float(nmos_lut.query("id", vgs, vds))
            direct = float(model.drain_current(vgs, vds, 700e-9, L)) / 700e-9
            assert interpolated == pytest.approx(direct, rel=0.02, abs=1e-9)

    def test_query_all_keys(self, nmos_lut):
        values = nmos_lut.query_all(0.5, 0.5)
        assert set(values) == {"id", "gm", "gds", "cds", "cgs"}

    def test_unknown_output_rejected(self, nmos_lut):
        with pytest.raises(KeyError):
            nmos_lut.query("bogus", 0.5, 0.5)

    def test_gm_over_id_monotone_decreasing_in_vgs(self, nmos_lut):
        # gm/Id is flat (~1/(n*Ut)) deep in weak inversion, where spline
        # wiggles at the 1e-4 level are expected; test from 0.3 V up where
        # the ratio genuinely falls.
        vgs = np.linspace(0.3, 1.1, 30)
        ratios = nmos_lut.gm_over_id(vgs, 0.6)
        assert np.all(np.diff(ratios) < 0)

    def test_find_vgs_inverts_gm_id(self, nmos_lut):
        for target in (5.0, 15.0, 25.0):
            vgs = nmos_lut.find_vgs_for_gm_id(target, 0.6)
            assert float(nmos_lut.gm_over_id(vgs, 0.6)) == pytest.approx(target, rel=1e-3)

    def test_find_vgs_clamps_out_of_range(self, nmos_lut):
        low, high = nmos_lut.gm_id_range(0.6)
        assert nmos_lut.find_vgs_for_gm_id(high * 2, 0.6) == pytest.approx(nmos_lut.vgs_grid[1])
        assert nmos_lut.find_vgs_for_gm_id(low / 2, 0.6) == pytest.approx(nmos_lut.vgs_grid[-1])

    def test_invalid_target_rejected(self, nmos_lut):
        with pytest.raises(ValueError):
            nmos_lut.find_vgs_for_gm_id(-1.0, 0.6)

    def test_save_load_roundtrip(self, nmos_lut, tmp_path):
        path = tmp_path / "lut.npz"
        nmos_lut.save(path)
        restored = LookupTable.load(path)
        assert restored.tech.name == nmos_lut.tech.name
        np.testing.assert_allclose(restored.tables["gm"], nmos_lut.tables["gm"])
        assert float(restored.query("gm", 0.55, 0.63)) == pytest.approx(
            float(nmos_lut.query("gm", 0.55, 0.63))
        )

    def test_testbench_lut_matches_direct(self):
        """The literal Fig. 5 flow (one MNA testbench solve per grid point,
        in the scalar reference) gives the LUT's tables bit for bit."""
        for tech in (NMOS_65NM, PMOS_65NM):
            lut = build_lut(tech, step=0.3)
            bench = scalar_reference.characterize_device(tech, lut.vgs_grid, lut.vds_grid)
            for name in LUT_OUTPUTS:
                assert np.array_equal(bench.tables[name], lut.tables[name]), (tech.name, name)


def params_from_model(tech, vgs, vds, width):
    model = EKVModel(tech)
    values = model.evaluate_all(vgs, vds, width, L)
    return DeviceParams(
        gm=float(values["gm"]),
        gds=float(values["gds"]),
        cds=float(values["cds"]),
        cgs=float(values["cgs"]),
        id=float(values["id"]),
    )


class TestWidthEstimator:
    def test_roundtrip_simple(self, nmos_lut):
        params = params_from_model(NMOS_65NM, 0.5, 0.6, 10e-6)
        estimate = estimate_width(params, nmos_lut)
        assert estimate.width == pytest.approx(10e-6, rel=0.02)
        assert estimate.converged

    @settings(max_examples=25, deadline=None)
    @given(
        width=st.floats(min_value=0.7e-6, max_value=50e-6),
        vgs=st.floats(min_value=0.35, max_value=0.85),
        vds=st.floats(min_value=0.2, max_value=1.0),
    )
    def test_roundtrip_property(self, nmos_lut, width, vgs, vds):
        params = params_from_model(NMOS_65NM, vgs, vds, width)
        estimate = estimate_width(params, nmos_lut)
        assert estimate.width == pytest.approx(width, rel=0.05)

    def test_pmos_roundtrip(self, pmos_lut):
        params = params_from_model(PMOS_65NM, 0.6, 0.55, 2e-6)
        estimate = estimate_width(params, pmos_lut)
        assert estimate.width == pytest.approx(2e-6, rel=0.02)

    def test_recovers_bias_point(self, nmos_lut):
        vgs, vds = 0.45, 0.72
        params = params_from_model(NMOS_65NM, vgs, vds, 8e-6)
        estimate = estimate_width(params, nmos_lut)
        assert estimate.vgs == pytest.approx(vgs, abs=0.02)
        assert estimate.vds == pytest.approx(vds, abs=0.05)

    def test_candidates_agree_at_solution(self, nmos_lut):
        params = params_from_model(NMOS_65NM, 0.5, 0.6, 10e-6)
        estimate = estimate_width(params, nmos_lut)
        assert estimate.spread() < 0.05

    def test_paper_update_rule_agrees_with_jump(self, nmos_lut):
        params = params_from_model(NMOS_65NM, 0.55, 0.5, 5e-6)
        jump = estimate_width(params, nmos_lut, update="jump")
        paper = estimate_width(params, nmos_lut, update="paper", max_iterations=300)
        assert jump.width == pytest.approx(paper.width, rel=0.02)

    def test_unknown_update_rejected(self, nmos_lut):
        params = params_from_model(NMOS_65NM, 0.5, 0.5, 5e-6)
        with pytest.raises(ValueError):
            estimate_width(params, nmos_lut, update="bogus")

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DeviceParams(gm=-1.0, gds=1e-6, cds=1e-15, cgs=1e-15, id=1e-5)
        with pytest.raises(ValueError):
            DeviceParams(gm=1e-3, gds=1e-6, cds=1e-15, cgs=1e-15, id=float("nan"))

    def test_noisy_params_still_close(self, nmos_lut):
        """~10% parameter noise (transformer-scale error) must yield a
        width in the right neighbourhood -- the property the copilot loop
        relies on."""
        rng = np.random.default_rng(3)
        params = params_from_model(NMOS_65NM, 0.5, 0.6, 10e-6)
        noisy = DeviceParams(
            gm=params.gm * 1.1,
            gds=params.gds * 0.92,
            cds=params.cds * 1.05,
            cgs=params.cgs * 0.95,
            id=params.id * 1.08,
        )
        estimate = estimate_width(noisy, nmos_lut)
        assert estimate.width == pytest.approx(10e-6, rel=0.35)
