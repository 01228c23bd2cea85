"""Tests of the evaluation utilities (correlations, study statistics)."""

import numpy as np
import pytest

from repro.core import correlation_table
from repro.core.evaluate import PredictionSet, SizingStudy
from repro.service import SizingResponse
from repro.spice import PerformanceMetrics


def _prediction_set(noise):
    rng = np.random.default_rng(0)
    desired = {"M1": {p: list(rng.uniform(1, 2, 30)) for p in ("gm", "gds", "cds", "cgs")}}
    predicted = {
        "M1": {
            p: [v * (1.0 + noise * rng.normal()) for v in desired["M1"][p]]
            for p in ("gm", "gds", "cds", "cgs")
        }
    }
    return PredictionSet("5T-OTA", predicted=predicted, desired=desired, total=30)


class TestCorrelationTable:
    def test_perfect_prediction_gives_unit_correlation(self):
        table = correlation_table(_prediction_set(0.0))
        for value in table["M1"].values():
            assert value == pytest.approx(1.0)

    def test_noise_lowers_correlation(self):
        clean = correlation_table(_prediction_set(0.01))["M1"]["gm"]
        noisy = correlation_table(_prediction_set(0.5))["M1"]["gm"]
        assert noisy < clean

    def test_degenerate_series_gives_nan(self):
        prediction_set = PredictionSet(
            "5T-OTA",
            predicted={"M1": {"gm": [1.0, 1.0], "gds": [], "cds": [], "cgs": []}},
            desired={"M1": {"gm": [1.0, 2.0], "gds": [], "cds": [], "cgs": []}},
            total=2,
        )
        table = correlation_table(prediction_set)
        assert np.isnan(table["M1"]["gm"])
        assert np.isnan(table["M1"]["gds"])


def _result(success, sims, time_s, iterations):
    return SizingResponse(
        request_id="r",
        topology="5T-OTA",
        success=success,
        widths=None,
        metrics=PerformanceMetrics(21.0, 1.1e7, 1.1e8) if success else None,
        iterations=iterations,
        spice_simulations=sims,
        wall_time_s=time_s,
    )


class TestSizingStudy:
    def test_classification(self):
        study = SizingStudy("5T-OTA", results=[
            _result(True, 1, 0.5, 1),   # single
            _result(True, 3, 1.5, 3),   # multi
            _result(False, 6, 3.0, 6),  # failure
        ])
        assert study.single_iteration_successes == 1
        assert study.multi_iteration_successes == 1
        assert study.failures == 1
        assert study.success_rate == pytest.approx(2 / 3)

    def test_average_times(self):
        study = SizingStudy("5T-OTA", results=[
            _result(True, 1, 0.5, 1),
            _result(True, 1, 1.5, 1),
            _result(True, 4, 4.0, 4),
        ])
        assert study.average_time(multi_only=False) == pytest.approx(1.0)
        assert study.average_time(multi_only=True) == pytest.approx(4.0)
        assert study.average_iterations_multi() == pytest.approx(4.0)
        assert study.average_spice_simulations() == pytest.approx(2.0)

    def test_empty_categories_give_nan(self):
        study = SizingStudy("5T-OTA", results=[_result(True, 1, 0.5, 1)])
        assert np.isnan(study.average_time(multi_only=True))
        assert np.isnan(study.average_iterations_multi())
