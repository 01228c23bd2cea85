"""Unit and property tests of the EKV compact model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import MOSFET, EKVModel, NMOS_65NM, PMOS_65NM, TechParams, resolve_corner
from repro.devices.ekv import (
    DeviceArrays,
    interp_f,
    interp_f_prime,
    operating_point_arrays,
    stamp_terms,
)

L = 180e-9
MODELS = [EKVModel(NMOS_65NM), EKVModel(PMOS_65NM)]

bias = st.tuples(
    st.floats(min_value=0.0, max_value=1.2),
    st.floats(min_value=0.05, max_value=1.2),
)
width = st.floats(min_value=0.2e-6, max_value=100e-6)


class TestInterpolationFunction:
    def test_weak_inversion_limit(self):
        # F(v) ~ e^v for very negative v.
        v = -20.0
        assert interp_f(v) == pytest.approx(np.exp(v), rel=1e-3)

    def test_strong_inversion_limit(self):
        # F(v) ~ (v/2)^2 for large v.
        v = 60.0
        assert interp_f(v) == pytest.approx((v / 2.0) ** 2, rel=0.1)

    def test_derivative_matches_finite_difference(self):
        vs = np.linspace(-10, 30, 41)
        eps = 1e-6
        numeric = (interp_f(vs + eps) - interp_f(vs - eps)) / (2 * eps)
        np.testing.assert_allclose(interp_f_prime(vs), numeric, rtol=1e-6, atol=1e-12)

    def test_monotone_increasing(self):
        vs = np.linspace(-30, 30, 200)
        assert np.all(np.diff(interp_f(vs)) > 0)

    def test_no_overflow_at_extremes(self):
        assert np.isfinite(interp_f(800.0))
        assert interp_f(-800.0) == pytest.approx(0.0)


class TestDrainCurrent:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.tech.name)
    def test_positive_in_normal_operation(self, model):
        ids = model.drain_current(0.6, 0.6, 10e-6, L)
        assert ids > 0

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.tech.name)
    def test_zero_vds_zero_current(self, model):
        assert model.drain_current(0.6, 0.0, 10e-6, L) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.tech.name)
    def test_symmetric_reverse_conduction(self, model):
        forward = model.drain_current(0.6, 0.3, 10e-6, L)
        assert model.drain_current(0.6, -0.3, 10e-6, L) < 0
        assert forward > 0

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.tech.name)
    def test_monotone_in_vgs(self, model):
        vgs = np.linspace(0.0, 1.2, 40)
        ids = model.drain_current(vgs, 0.6, 10e-6, L)
        assert np.all(np.diff(ids) > 0)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.tech.name)
    def test_monotone_in_vds(self, model):
        vds = np.linspace(0.0, 1.2, 40)
        ids = model.drain_current(0.6, vds, 10e-6, L)
        assert np.all(np.diff(ids) > 0)

    @settings(max_examples=50, deadline=None)
    @given(bias=bias, w=width)
    def test_linear_in_width(self, bias, w):
        vgs, vds = bias
        model = MODELS[0]
        single = model.drain_current(vgs, vds, w, L)
        double = model.drain_current(vgs, vds, 2.0 * w, L)
        assert double == pytest.approx(2.0 * single, rel=1e-12)


class TestSmallSignalParameters:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.tech.name)
    def test_gm_matches_numeric_derivative(self, model):
        eps = 1e-6
        for vgs in (0.3, 0.5, 0.8):
            for vds in (0.2, 0.6, 1.1):
                numeric = (
                    model.drain_current(vgs + eps, vds, 5e-6, L)
                    - model.drain_current(vgs - eps, vds, 5e-6, L)
                ) / (2 * eps)
                analytic = model.transconductance(vgs, vds, 5e-6, L)
                assert analytic == pytest.approx(numeric, rel=1e-5)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.tech.name)
    def test_gds_matches_numeric_derivative(self, model):
        eps = 1e-6
        for vgs in (0.3, 0.5, 0.8):
            for vds in (0.2, 0.6, 1.1):
                numeric = (
                    model.drain_current(vgs, vds + eps, 5e-6, L)
                    - model.drain_current(vgs, vds - eps, 5e-6, L)
                ) / (2 * eps)
                analytic = model.output_conductance(vgs, vds, 5e-6, L)
                assert analytic == pytest.approx(numeric, rel=1e-5)

    @settings(max_examples=50, deadline=None)
    @given(bias=bias, w=width)
    def test_all_outputs_nonnegative(self, bias, w):
        vgs, vds = bias
        for model in MODELS:
            values = model.evaluate_all(vgs, vds, w, L)
            for name, value in values.items():
                assert float(value) >= 0.0, name

    @settings(max_examples=50, deadline=None)
    @given(bias=bias, w=width)
    def test_gm_over_id_is_width_independent(self, bias, w):
        vgs, vds = bias
        model = MODELS[0]
        id1 = float(model.drain_current(vgs, vds, w, L))
        if id1 < 1e-15:
            return
        ratio1 = float(model.transconductance(vgs, vds, w, L)) / id1
        id2 = float(model.drain_current(vgs, vds, 3 * w, L))
        ratio2 = float(model.transconductance(vgs, vds, 3 * w, L)) / id2
        assert ratio1 == pytest.approx(ratio2, rel=1e-10)

    def test_gm_over_id_weak_inversion_limit(self):
        # In deep weak inversion gm/Id approaches 1/(n*Ut).
        model = MODELS[0]
        tech = model.tech
        vgs = 0.15  # far below threshold
        gm = float(model.transconductance(vgs, 0.6, 10e-6, L))
        id_ = float(model.drain_current(vgs, 0.6, 10e-6, L))
        assert gm / id_ == pytest.approx(1.0 / (tech.n_slope * tech.ut), rel=0.05)

    @settings(max_examples=30, deadline=None)
    @given(bias=bias, w=width)
    def test_capacitances_linear_in_width(self, bias, w):
        vgs, vds = bias
        model = MODELS[1]
        cgs1 = float(model.gate_source_capacitance(vgs, vds, w, L))
        cgs2 = float(model.gate_source_capacitance(vgs, vds, 2 * w, L))
        assert cgs2 == pytest.approx(2 * cgs1, rel=1e-12)
        cds1 = float(model.drain_source_capacitance(vgs, vds, w, L))
        cds2 = float(model.drain_source_capacitance(vgs, vds, 2 * w, L))
        assert cds2 == pytest.approx(2 * cds1, rel=1e-12)

    def test_cgs_increases_with_inversion(self):
        model = MODELS[0]
        vgs = np.linspace(0.1, 1.2, 30)
        cgs = model.gate_source_capacitance(vgs, 0.6, 10e-6, L)
        assert np.all(np.diff(cgs) > 0)

    def test_cds_decreases_with_vds(self):
        model = MODELS[0]
        vds = np.linspace(0.0, 1.2, 30)
        cds = model.drain_source_capacitance(0.6, vds, 10e-6, L)
        assert np.all(np.diff(cds) < 0)


class TestRegions:
    def test_inversion_coefficient_monotone_in_vgs(self):
        model = MODELS[0]
        vgs = np.linspace(0.0, 1.2, 50)
        ic = model.inversion_coefficient(vgs, 0.6)
        assert np.all(np.diff(ic) > 0)

    def test_saturation_voltage_grows_with_vgs(self):
        model = MODELS[0]
        vgs = np.linspace(0.2, 1.2, 30)
        vdsat = model.saturation_voltage(vgs)
        assert np.all(np.diff(vdsat) >= 0)

    def test_weak_inversion_saturation_floor(self):
        # In weak inversion Vds,sat -> ~4 Ut plus a small IC term.
        model = MODELS[0]
        vdsat = float(model.saturation_voltage(0.1))
        assert 3.5 * model.tech.ut < vdsat < 6.0 * model.tech.ut

    def test_is_saturated_consistent(self):
        model = MODELS[0]
        assert bool(model.is_saturated(0.5, 1.0))
        assert not bool(model.is_saturated(0.5, 0.05))


class TestTechParams:
    def test_invalid_polarity_rejected(self):
        with pytest.raises(ValueError):
            TechParams(name="bad", polarity=0, vt0=0.4, n_slope=1.3, kp=1e-4)

    def test_negative_vt_rejected(self):
        with pytest.raises(ValueError):
            TechParams(name="bad", polarity=1, vt0=-0.4, n_slope=1.3, kp=1e-4)

    def test_slope_below_one_rejected(self):
        with pytest.raises(ValueError):
            TechParams(name="bad", polarity=1, vt0=0.4, n_slope=0.9, kp=1e-4)

    def test_spec_current_scales_with_geometry(self):
        ispec1 = NMOS_65NM.spec_current(1e-6, L)
        assert NMOS_65NM.spec_current(2e-6, L) == pytest.approx(2 * ispec1)
        assert NMOS_65NM.spec_current(1e-6, 2 * L) == pytest.approx(ispec1 / 2)

    def test_spec_current_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            NMOS_65NM.spec_current(-1e-6, L)

    def test_with_override(self):
        modified = NMOS_65NM.with_(vt0=0.5)
        assert modified.vt0 == 0.5
        assert modified.kp == NMOS_65NM.kp


#: Every technology the batched kernels meet: both polarities at the
#: tt/ss/ff presets and at a non-preset temperature, whose ``ut**2`` the
#: C library's ``pow`` and numpy's square round differently.
CORNER_TECHS = [
    resolve_corner(corner).apply_tech(tech)
    for tech in (NMOS_65NM, PMOS_65NM)
    for corner in ("tt", "ss", "ff", {"name": "warm", "temperature_k": 344.8})
]


def _device_grid(seed: int, columns: int = 40):
    """Random instances of every corner technology (one row each) with
    random widths and lengths, and bias points that include negative
    ``vds`` and gate drives from cutoff to strong inversion."""
    rng = np.random.default_rng(seed)
    instances = [
        [
            (tech, float(w), float(length))
            for w, length in zip(
                rng.uniform(0.2e-6, 80e-6, columns),
                rng.choice([L, 2 * L, 0.5e-6], columns),
                strict=True,
            )
        ]
        for tech in CORNER_TECHS
    ]
    shape = (len(CORNER_TECHS), columns)
    devices = DeviceArrays.from_instances([i for row in instances for i in row], shape)
    return instances, devices, rng.uniform(-0.4, 1.5, shape), rng.uniform(-1.0, 1.4, shape)


class TestFusedKernels:
    def test_device_arrays_use_scalar_arithmetic(self):
        """``ispec`` is each instance's own ``TechParams.spec_current``,
        including at 344.8 K where numpy's ``ut**2`` differs from it."""
        instances, devices, _, _ = _device_grid(seed=1)
        for row, instance_row in enumerate(instances):
            for column, (tech, w, length) in enumerate(instance_row):
                assert devices.ispec[row, column] == tech.spec_current(w, length)
                assert devices.lam_ut[row, column] == tech.lambda_l / length * tech.ut
        taken = devices.take(np.array([3, 0]))
        assert np.array_equal(taken.values, devices.values[:, :, [3, 0]])
        assert taken.ispec.flags.c_contiguous

    @pytest.mark.parametrize("seed", [2, 3])
    def test_stamp_terms_bit_identical_to_the_three_methods(self, seed):
        instances, devices, vgs, vds = _device_grid(seed)
        drain_current, gm, gds = stamp_terms(vgs, vds, devices)
        assert (vds < 0).any()
        for row, instance_row in enumerate(instances):
            for column, (tech, w, length) in enumerate(instance_row):
                model = EKVModel(tech)
                bias = (float(vgs[row, column]), float(vds[row, column]))
                assert drain_current[row, column] == model.drain_current(*bias, w, length)
                assert gm[row, column] == model.transconductance(*bias, w, length)
                assert gds[row, column] == model.output_conductance(*bias, w, length)

    def test_operating_point_arrays_bit_identical_to_scalar_operating_points(self):
        """Every field of every instance's ``MOSFET.operating_point``; the
        ``Cds`` power is the one numpy's array ``pow`` would round
        differently."""
        instances, devices, vgs, vds = _device_grid(seed=4, columns=60)
        values = operating_point_arrays(vgs, vds, devices)
        for row, instance_row in enumerate(instances):
            for column, (tech, w, length) in enumerate(instance_row):
                # MOSFET.operating_point maps circuit voltages by polarity;
                # feed it the voltages that map to this normalized bias.
                pol = tech.polarity
                op = MOSFET("M", "d", "g", "s", tech, w, length).operating_point(
                    pol * float(vds[row, column]), pol * float(vgs[row, column]), 0.0
                )
                assert op.vgs == vgs[row, column] and op.vds == vds[row, column]
                small = op.small_signal
                assert values["id"][row, column] == small.id
                assert values["gm"][row, column] == small.gm
                assert values["gds"][row, column] == small.gds
                assert values["cgs"][row, column] == small.cgs
                assert values["cds"][row, column] == small.cds
                assert values["ic"][row, column] == op.inversion_coefficient
                assert values["saturated"][row, column] == op.saturated
