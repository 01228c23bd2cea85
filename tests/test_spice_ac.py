"""Tests of the small-signal AC analysis and metric extraction."""

import numpy as np
import pytest

from repro.devices import NMOS_65NM
from repro.spice import (
    Circuit,
    PerformanceMetrics,
    crossing_frequency,
    default_frequency_grid,
    extract_metrics,
    run_ac,
    solve_dc,
)

L = 180e-9


def rc_lowpass(r=1e3, c=1e-9):
    circuit = Circuit("rc")
    circuit.add_vsource("VIN", "in", "0", 0.0, ac=1.0)
    circuit.add_resistor("R", "in", "out", r)
    circuit.add_capacitor("C", "out", "0", c)
    return circuit


class TestACAnalysis:
    def test_rc_pole_matches_analytic(self):
        r, c = 1e3, 1e-9
        circuit = rc_lowpass(r, c)
        dc = solve_dc(circuit)
        freqs = np.logspace(3, 8, 101)
        result = run_ac(dc, freqs)
        h = result.transfer("out")
        expected = 1.0 / (1.0 + 2j * np.pi * freqs * r * c)
        np.testing.assert_allclose(h, expected, rtol=1e-10)

    def test_supply_is_small_signal_ground(self):
        circuit = Circuit("supply")
        circuit.add_vsource("VDD", "vdd", "0", 1.2, ac=0.0)
        circuit.add_vsource("VIN", "in", "0", 0.0, ac=1.0)
        circuit.add_resistor("R1", "in", "x", 1e3)
        circuit.add_resistor("R2", "x", "vdd", 1e3)
        dc = solve_dc(circuit)
        result = run_ac(dc, np.array([1e3]))
        assert abs(result.transfer("vdd")[0]) == pytest.approx(0.0, abs=1e-12)
        assert abs(result.transfer("x")[0]) == pytest.approx(0.5, rel=1e-9)

    def test_cs_amplifier_low_frequency_gain(self):
        circuit = Circuit("cs")
        circuit.add_vsource("VDD", "vdd", "0", 1.2)
        circuit.add_vsource("VIN", "g", "0", 0.55, ac=1.0)
        circuit.add_resistor("RL", "vdd", "d", 20e3)
        circuit.add_mosfet("M", "d", "g", "0", NMOS_65NM, 5e-6, L)
        dc = solve_dc(circuit)
        small = dc.op("M").small_signal
        expected = -small.gm / (1.0 / 20e3 + small.gds)
        result = run_ac(dc, np.array([10.0]))
        assert result.transfer("d")[0].real == pytest.approx(expected, rel=1e-6)

    def test_magnitude_db(self):
        circuit = rc_lowpass()
        dc = solve_dc(circuit)
        result = run_ac(dc, np.array([1.0]))
        assert result.magnitude_db("out")[0] == pytest.approx(0.0, abs=1e-6)

    def test_transfer_uses_index_map(self):
        """transfer() resolves nodes through the precomputed name map."""
        circuit = rc_lowpass()
        dc = solve_dc(circuit)
        result = run_ac(dc, np.array([1e3, 1e6]))
        for i, name in enumerate(result.node_names):
            np.testing.assert_array_equal(result.transfer(name), result.phasors[:, i])
        assert not result.transfer("0").any()  # ground is identically zero
        with pytest.raises(ValueError, match="not a node"):
            result.transfer("missing-node")

    def test_run_ac_many_bitwise_matches_run_ac(self):
        from repro.spice import run_ac_many

        from tests import scalar_reference

        freqs = np.logspace(2, 9, 40)
        solutions = [solve_dc(rc_lowpass(r=r)) for r in (5e2, 1e3, 2e3, 8e3)]
        stacked = run_ac_many(solutions, freqs)
        for dc, result in zip(solutions, stacked, strict=True):
            reference = scalar_reference.run_ac(dc, freqs)
            assert result.node_names == reference.node_names
            np.testing.assert_array_equal(result.phasors, reference.phasors)

    def test_default_grid_spans_requested_range(self):
        grid = default_frequency_grid(1.0, 1e9, 10)
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(1e9)
        assert np.all(np.diff(np.log10(grid)) > 0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            default_frequency_grid(10.0, 1.0)


class TestMetricExtraction:
    def test_rc_f3db(self):
        r, c = 1e3, 1e-9
        circuit = rc_lowpass(r, c)
        dc = solve_dc(circuit)
        result = run_ac(dc, np.logspace(2, 9, 211))
        metrics = extract_metrics(result, "out")
        expected_pole = 1.0 / (2 * np.pi * r * c)
        assert metrics.gain_db == pytest.approx(0.0, abs=1e-4)
        assert metrics.f3db_hz == pytest.approx(expected_pole, rel=0.02)
        # A unity-gain passive filter never crosses 0 dB from above at
        # finite frequency after the pole; UGF equals f3dB region crossing.
        assert np.isfinite(metrics.ugf_hz) or np.isnan(metrics.ugf_hz)

    def test_crossing_interpolation(self):
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([20.0, 20.0, 0.0])
        crossing = crossing_frequency(freqs, mags, 10.0)
        assert 10.0 < crossing < 100.0

    def test_no_crossing_returns_nan(self):
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([5.0, 5.0, 5.0])
        assert np.isnan(crossing_frequency(freqs, mags, 0.0))

    def test_level_above_response_returns_nan(self):
        """A response entirely below the level never crosses from above."""
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([5.0, 4.0, 3.0])
        assert np.isnan(crossing_frequency(freqs, mags, 10.0))

    def test_first_point_crossing(self):
        """Crossing within the very first grid interval."""
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([20.0, 5.0, 1.0])
        frac = (20.0 - 10.0) / (20.0 - 5.0)
        expected = 10.0 ** (0.0 + frac * (np.log10(10.0) - np.log10(1.0)))
        assert crossing_frequency(freqs, mags, 10.0) == expected

    def test_flat_segment_before_crossing(self):
        """A flat at-level plateau: the crossing interval starts at the
        plateau's last point, and interpolation lands exactly on it."""
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([20.0, 20.0, 0.0])
        assert crossing_frequency(freqs, mags, 20.0) == 10.0

    def test_grid_exact_crossing_at_final_sample(self):
        """Regression: a response that lands grid-exactly on the level at
        the *last* grid point is a crossing (the old right-edge-below scan
        returned nan because no interval had a below-level right edge)."""
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([20.0, 12.0, 10.0])
        assert crossing_frequency(freqs, mags, 10.0) == 100.0

    def test_grid_exact_touch_mid_grid(self):
        """A grid-exact hit from strictly above mid-grid resolves to that
        grid point, even when the response recovers afterwards."""
        freqs = np.array([1.0, 10.0, 100.0, 1000.0])
        mags = np.array([20.0, 10.0, 15.0, 5.0])
        assert crossing_frequency(freqs, mags, 10.0) == 10.0

    def test_flat_at_level_plateau_is_not_a_crossing(self):
        """Riding *along* the level never counts as crossing it from
        above; the interpolation therefore never sees m1 == m2."""
        freqs = np.array([1.0, 10.0, 100.0])
        mags = np.array([10.0, 10.0, 10.0])
        assert np.isnan(crossing_frequency(freqs, mags, 10.0))

    def test_vectorized_scan_matches_reference_loop(self):
        """Bit-identity pin of the numpy sign-change scan against a
        pure-Python loop, over random grids (NaN tails included)."""

        def reference(freqs, mags, level_db):
            for i in range(len(freqs) - 1):
                m1, m2 = mags[i], mags[i + 1]
                if (m1 >= level_db and m2 < level_db) or (
                    m1 > level_db and m2 == level_db
                ):
                    log_f1, log_f2 = np.log10(freqs[i]), np.log10(freqs[i + 1])
                    frac = (m1 - level_db) / (m1 - m2)
                    return float(10.0 ** (log_f1 + frac * (log_f2 - log_f1)))
            return float("nan")

        rng = np.random.default_rng(8)
        freqs = np.logspace(0, 9, 181)
        for case in range(50):
            mags = np.cumsum(rng.normal(-0.5, 2.0, freqs.size))
            if case % 5 == 0:
                mags[-rng.integers(1, 20):] = np.nan  # unresolved band edge
            for level in (-10.0, 0.0, float(mags[0]), 10.0):
                expected = reference(freqs, mags, level)
                got = crossing_frequency(freqs, mags, level)
                assert (np.isnan(expected) and np.isnan(got)) or expected == got

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crossing_frequency(np.array([1.0, 2.0]), np.array([1.0]), 0.0)

    def test_ota_metrics_sane(self, five_t_measurement):
        metrics = five_t_measurement.metrics
        assert metrics.is_valid()
        assert 15.0 < metrics.gain_db < 40.0
        assert 1e6 < metrics.f3db_hz < 1e8
        assert 1e7 < metrics.ugf_hz < 1e9
        # Single-pole-ish consistency: UGF ~ gain * f3dB.
        assert metrics.ugf_hz == pytest.approx(
            metrics.gain_linear * metrics.f3db_hz, rel=0.4
        )

    def test_metrics_as_array(self):
        metrics = PerformanceMetrics(20.0, 1e6, 1e8)
        np.testing.assert_allclose(metrics.as_array(), [20.0, 1e6, 1e8])
        assert metrics.gain_linear == pytest.approx(10.0)

    def test_invalid_metrics_flagged(self):
        metrics = PerformanceMetrics(20.0, float("nan"), 1e8)
        assert not metrics.is_valid()
