"""Tests of specs, margin allocation and the end-to-end sizing flow.

The flow tests use an *oracle* model -- a stand-in for the transformer
that returns the true device parameters of a nearby dataset design -- so
Stage III (width estimation) and Stage IV (verification + copilot loop)
are validated independently of training quality.  They size through
``SizingEngine.size_batch``, whose responses carry the iteration trace.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import DesignSpec, tighten_spec
from repro.core.bundle import SizingModel
from repro.datagen import SequenceBuilder, SequenceConfig
from repro.devices import NMOS_65NM, PMOS_65NM
from repro.lut import build_lut
from repro.service import SizingEngine, SizingRequest
from repro.spice import PerformanceMetrics



class TestDesignSpec:
    def test_satisfied(self):
        spec = DesignSpec(gain_db=20.0, f3db_hz=1e7, ugf_hz=1e8)
        assert spec.satisfied(PerformanceMetrics(21.0, 1.2e7, 1.5e8))
        assert not spec.satisfied(PerformanceMetrics(19.0, 1.2e7, 1.5e8))

    def test_satisfied_with_tolerance(self):
        spec = DesignSpec(gain_db=20.0, f3db_hz=1e7, ugf_hz=1e8)
        assert spec.satisfied(PerformanceMetrics(19.9, 1e7, 1e8), rel_tol=0.01)

    def test_invalid_metrics_not_satisfied(self):
        spec = DesignSpec(20.0, 1e7, 1e8)
        assert not spec.satisfied(PerformanceMetrics(30.0, float("nan"), 1e8))

    def test_miss_fractions(self):
        spec = DesignSpec(20.0, 1e7, 1e8)
        misses = spec.miss_fractions(PerformanceMetrics(18.0, 2e7, 0.9e8))
        assert misses["gain_db"] == pytest.approx(0.1)
        assert misses["f3db_hz"] == 0.0
        assert misses["ugf_hz"] == pytest.approx(0.1)

    def test_scaled(self):
        spec = DesignSpec(20.0, 1e7, 1e8)
        tightened = spec.scaled({"gain_db": 1.1})
        assert tightened.gain_db == pytest.approx(22.0)
        assert tightened.ugf_hz == pytest.approx(1e8)

    def test_from_metrics_with_slack(self):
        metrics = PerformanceMetrics(20.0, 1e7, 1e8)
        spec = DesignSpec.from_metrics(metrics, slack=0.1)
        assert spec.gain_db == pytest.approx(18.0)

    def test_positive_targets_required(self):
        with pytest.raises(ValueError):
            DesignSpec(-1.0, 1e7, 1e8)


def test_only_the_spec_imports_the_direction_table():
    """``DesignSpec`` is the one judge of measured metrics against targets:
    besides the ``repro.spice`` re-export, no module imports
    ``TRAN_METRIC_DIRECTIONS`` or reaches it as an attribute."""
    package = Path(repro.__file__).parent
    users = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if "TRAN_METRIC_DIRECTIONS" in names:
                users.add(path.relative_to(package).as_posix())
    assert users == {"spice/__init__.py", "core/specs.py"}


class TestMarginAllocation:
    def test_shortfall_tightens_proportionally(self):
        original = DesignSpec(20.0, 1e7, 1e8)
        measured = PerformanceMetrics(18.0, 1.2e7, 1.2e8)  # 10% gain shortfall
        tightened = tighten_spec(original, original, measured, padding=0.0)
        assert tightened.gain_db == pytest.approx(22.0)
        assert tightened.f3db_hz == pytest.approx(1e7)

    def test_padding_overshoots(self):
        original = DesignSpec(20.0, 1e7, 1e8)
        measured = PerformanceMetrics(18.0, 1.2e7, 1.2e8)
        tightened = tighten_spec(original, original, measured, padding=0.05)
        assert tightened.gain_db == pytest.approx(20.0 * 1.15)

    def test_cumulative_tightening_capped(self):
        original = DesignSpec(20.0, 1e7, 1e8)
        request = original
        measured = PerformanceMetrics(10.0, 1e6, 1e7)  # massive shortfall
        for _ in range(10):
            request = tighten_spec(request, original, measured)
        assert request.gain_db <= original.gain_db * 1.5 + 1e-9
        assert request.ugf_hz <= original.ugf_hz * 1.5 + 1e-9

    def test_met_specs_untouched(self):
        original = DesignSpec(20.0, 1e7, 1e8)
        measured = PerformanceMetrics(25.0, 2e7, 2e8)
        tightened = tighten_spec(original, original, measured)
        assert tightened == original


class _OracleModel(SizingModel):
    """A 'perfect transformer': returns the device parameters of the
    dataset design whose metrics are closest to the request."""

    def __init__(self, topology, records, luts, noise=0.0, seed=0):
        builder = SequenceBuilder(topology, SequenceConfig())
        super().__init__(
            transformer=None,
            bpe=None,
            vocab=None,
            sequence_config=builder.config,
            builders={topology.name: builder},
            luts=luts,
        )
        self._records = records
        self._rng = np.random.default_rng(seed)
        self._noise = noise

    def predict_params(self, topology_name, spec, max_len=None):
        from repro.datagen.serialize import ParsedParams

        def distance(record):
            return (
                abs(np.log(record.gain_db / spec.gain_db))
                + abs(np.log(record.f3db_hz / spec.f3db_hz))
                + abs(np.log(record.ugf_hz / spec.ugf_hz))
            )

        best = min(self._records, key=distance)
        values = {}
        for group, params in best.device_params.items():
            values[group] = {
                key: value * float(np.exp(self._rng.normal(0.0, self._noise)))
                for key, value in params.items()
            }
        return ParsedParams(values=values, complete=True), "<oracle>"

    def predict_params_many(self, specs_by_topology, max_len=None):
        return {
            name: [self.predict_params(name, spec, max_len) for spec in specs]
            for name, specs in specs_by_topology.items()
        }


@pytest.fixture(scope="module")
def oracle_records(five_t_module):
    """A handful of measured designs to serve as the oracle's memory."""
    from repro.datagen import DesignFilter, generate_dataset

    rng = np.random.default_rng(21)
    dataset = generate_dataset(
        five_t_module, 15, rng,
        design_filter=DesignFilter(five_t_module, check_icmr=False),
        max_attempts=400,
    )
    assert len(dataset) >= 10
    return dataset.records


@pytest.fixture(scope="module")
def five_t_module():
    from repro.topologies import FiveTransistorOTA

    return FiveTransistorOTA()


@pytest.fixture(scope="module")
def luts_module():
    return {
        NMOS_65NM.name: build_lut(NMOS_65NM),
        PMOS_65NM.name: build_lut(PMOS_65NM),
    }


def _engine(topology, model):
    engine = SizingEngine(model, cache_size=0)
    engine.adopt_topology(topology)
    return engine


def _size(engine, spec, **kwargs):
    """One spec through the engine (the response carries its trace)."""
    (response,) = engine.size_batch([SizingRequest(topology="5T-OTA", spec=spec, **kwargs)])
    return response


class TestSizingFlowWithOracle:
    def test_exact_oracle_sizes_in_one_simulation(self, five_t_module, oracle_records, luts_module):
        model = _OracleModel(five_t_module, oracle_records, luts_module, noise=0.0)
        engine = _engine(five_t_module, model)
        record = oracle_records[0]
        # Ask for exactly what a known design achieves (with a hair of slack).
        spec = DesignSpec(record.gain_db * 0.995, record.f3db_hz * 0.98, record.ugf_hz * 0.98)
        result = _size(engine, spec)
        assert result.success
        assert result.spice_simulations == 1
        assert result.single_simulation

    def test_widths_recovered_close_to_truth(self, five_t_module, oracle_records, luts_module):
        model = _OracleModel(five_t_module, oracle_records, luts_module, noise=0.0)
        engine = _engine(five_t_module, model)
        record = oracle_records[1]
        parsed, _ = model.predict_params("5T-OTA", DesignSpec(record.gain_db, record.f3db_hz, record.ugf_hz))
        widths = engine.widths_from_params(five_t_module, parsed.values)
        for group, width in widths.items():
            assert width == pytest.approx(record.widths[group], rel=0.1)

    def test_noisy_oracle_recovers_with_copilot(self, five_t_module, oracle_records, luts_module):
        """With parameter noise some first attempts miss; the margin loop
        must close most of them within a few iterations."""
        model = _OracleModel(five_t_module, oracle_records, luts_module, noise=0.05, seed=3)
        engine = _engine(five_t_module, model)
        successes = 0
        for record in oracle_records[:8]:
            spec = DesignSpec(record.gain_db * 0.98, record.f3db_hz * 0.9, record.ugf_hz * 0.9)
            result = _size(engine, spec, max_iterations=6)
            successes += int(result.success)
        assert successes >= 6

    def test_result_accounting(self, five_t_module, oracle_records, luts_module):
        model = _OracleModel(five_t_module, oracle_records, luts_module)
        engine = _engine(five_t_module, model)
        record = oracle_records[2]
        spec = DesignSpec(record.gain_db * 0.99, record.f3db_hz * 0.95, record.ugf_hz * 0.95)
        result = _size(engine, spec)
        assert result.iterations == len(result.trace)
        assert result.wall_time_s > 0

    def test_impossible_spec_fails_gracefully(self, five_t_module, oracle_records, luts_module):
        model = _OracleModel(five_t_module, oracle_records, luts_module)
        engine = _engine(five_t_module, model)
        impossible = DesignSpec(gain_db=90.0, f3db_hz=1e9, ugf_hz=1e11)
        result = _size(engine, impossible, max_iterations=3)
        assert not result.success
        assert result.spice_simulations <= 3
        assert result.metrics is not None  # best effort reported
