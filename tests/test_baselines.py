"""Tests of the SPICE-in-the-loop baselines (SA / PSO / DE) of Table IX.

The baselines are the registered ``sa`` / ``pso`` / ``de`` solvers of
:mod:`repro.solvers`; their search space and objective are
:class:`~repro.solvers.SearchSpace` and :class:`~repro.solvers.SearchObjective`.
"""

import numpy as np
import pytest

from repro import solvers
from repro.core import DesignSpec
from repro.solvers import ScalarBackend, SearchObjective, SearchSpace

from tests.conftest import GOOD_WIDTHS


@pytest.fixture(scope="module")
def easy_spec(five_t_module):
    """A specification a known design comfortably exceeds."""
    metrics = five_t_module.measure(GOOD_WIDTHS["5T-OTA"]).metrics
    return DesignSpec(metrics.gain_db * 0.9, metrics.f3db_hz * 0.5, metrics.ugf_hz * 0.5)


@pytest.fixture(scope="module")
def five_t_module():
    from repro.topologies import FiveTransistorOTA

    return FiveTransistorOTA()


class TestSearchSpace:
    def test_decode_bounds(self, five_t_module):
        space = SearchSpace(five_t_module)
        lows = space.decode(np.zeros(space.dimension))
        highs = space.decode(np.ones(space.dimension))
        for name in space.names:
            low, high = five_t_module.group(name).width_bounds
            assert lows[name] == pytest.approx(low)
            assert highs[name] == pytest.approx(high)

    def test_decode_clips(self, five_t_module):
        space = SearchSpace(five_t_module)
        widths = space.decode(np.full(space.dimension, 2.0))
        for name, width in widths.items():
            assert width == pytest.approx(five_t_module.group(name).width_bounds[1])


class TestObjective:
    def test_counts_spice_calls(self, five_t_module, easy_spec):
        objective = SearchObjective(five_t_module, easy_spec, backend=ScalarBackend())
        space = objective.space
        rng = np.random.default_rng(0)
        for _ in range(4):
            objective.evaluate_one(space.random_point(rng))
        assert objective.spice_calls == 4

    def test_zero_cost_when_satisfied(self, five_t_module, easy_spec):
        objective = SearchObjective(five_t_module, easy_spec, backend=ScalarBackend())
        # Encode the known-good design into the normalized space.
        space = objective.space
        point = np.zeros(space.dimension)
        for i, name in enumerate(space.names):
            low, high = five_t_module.group(name).width_bounds
            width = GOOD_WIDTHS["5T-OTA"][name]
            point[i] = (np.log(width) - np.log(low)) / (np.log(high) - np.log(low))
        value = objective.evaluate_one(point)
        assert value == pytest.approx(0.0)
        assert objective.satisfied


@pytest.mark.parametrize("algorithm", ["sa", "pso", "de"], ids=["SA", "PSO", "DE"])
class TestBaselineAlgorithms:
    def test_finds_easy_spec(self, algorithm, five_t_module, easy_spec):
        rng = np.random.default_rng(5)
        result = solvers.get(algorithm)(five_t_module).solve(easy_spec, budget=250, rng=rng)
        assert result.success, f"{result.solver} best={result.best_value}"
        assert result.best_widths is not None
        assert result.spice_calls <= 250

    def test_respects_evaluation_budget(self, algorithm, five_t_module):
        hard = DesignSpec(gain_db=80.0, f3db_hz=1e10, ugf_hz=1e12)
        rng = np.random.default_rng(6)
        result = solvers.get(algorithm)(five_t_module).solve(hard, budget=30, rng=rng)
        assert not result.success
        assert result.spice_calls <= 30

    def test_history_monotone_nonincreasing(self, algorithm, five_t_module, easy_spec):
        rng = np.random.default_rng(7)
        result = solvers.get(algorithm)(five_t_module).solve(easy_spec, budget=100, rng=rng)
        history = np.array(result.history)
        assert np.all(np.diff(history) <= 1e-12)

    def test_spice_call_accounting(self, algorithm, five_t_module, easy_spec):
        """Every optimizer evaluation must be counted as a SPICE call."""
        rng = np.random.default_rng(8)
        result = solvers.get(algorithm)(five_t_module).solve(easy_spec, budget=250, rng=rng)
        assert result.spice_calls >= 1
        assert len(result.history) == result.spice_calls
