"""Shared fixtures and helpers for the test suite.

Expensive artifacts (LUTs, measured OTA designs) are session-scoped so the
several hundred tests stay fast.

The eval-backend test harness -- candidate-population builders, poisoned
topologies (deterministic :class:`ConvergenceError` generators), the
call-counting backend, and the bit-identity assertion helpers the parity
suites share -- lives here too, so ``test_solvers`` / ``test_corners`` /
``test_service`` / ``test_tran`` compare batched against sequential
evaluation through one vocabulary instead of four copies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bundle import SizingModel
from repro.datagen import SequenceBuilder, SequenceConfig
from repro.datagen.serialize import ParsedParams
from repro.devices import NMOS_65NM, PMOS_65NM, resolve_corner
from repro.lut import build_lut
from repro.solvers import BatchedBackend, SearchSpace
from repro.topologies import CurrentMirrorOTA, FiveTransistorOTA, TwoStageOTA


@pytest.fixture(scope="session")
def nmos_lut():
    return build_lut(NMOS_65NM)


@pytest.fixture(scope="session")
def pmos_lut():
    return build_lut(PMOS_65NM)


@pytest.fixture(scope="session")
def five_t():
    return FiveTransistorOTA()


@pytest.fixture(scope="session")
def cm_ota():
    return CurrentMirrorOTA()


@pytest.fixture(scope="session")
def two_stage():
    return TwoStageOTA()


#: A known-good width vector per topology (regions OK, all saturated).
GOOD_WIDTHS = {
    "5T-OTA": {"M1": 1.2e-6, "M3": 15e-6, "M5": 4e-6},
    "CM-OTA": {"M1": 1.0e-6, "M3": 15e-6, "M5": 4e-6, "M6": 2.0e-6, "M8": 0.8e-6},
    "2S-OTA": {"M1": 1.2e-6, "M3": 15e-6, "M5": 4e-6, "M6": 5e-6, "M7": 2.8e-6},
    "FC-OTA": {
        "M1": 15.8e-6, "M0": 2.9e-6, "M3": 8e-6,
        "M5": 4.5e-6, "M7": 2.9e-6, "M9": 5.5e-6,
    },
    "TELE-OTA": {
        "M1": 15.8e-6, "M0": 2.9e-6, "M3": 2.9e-6, "M5": 6e-6, "M7": 3e-6,
    },
}


@pytest.fixture(scope="session")
def five_t_measurement(five_t):
    return five_t.measure(GOOD_WIDTHS["5T-OTA"])


@pytest.fixture(scope="session")
def cm_measurement(cm_ota):
    return cm_ota.measure(GOOD_WIDTHS["CM-OTA"])


@pytest.fixture(scope="session")
def two_stage_measurement(two_stage):
    return two_stage.measure(GOOD_WIDTHS["2S-OTA"])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


# ----------------------------------------------------------------------
# Shared eval-backend test harness
# ----------------------------------------------------------------------
def make_population(topology, count: int, seed: int = 11) -> list[dict[str, float]]:
    """Random width vectors from the topology's search box (fixed seed)."""
    generator = np.random.default_rng(seed)
    space = SearchSpace(topology)
    return [space.decode(space.random_point(generator)) for _ in range(count)]


class PoisonedFiveT(FiveTransistorOTA):
    """5T-OTA whose build plants an unsatisfiable current source when the
    marker M1 width appears -- a deterministic ConvergenceError generator
    (1 A pulled out of a floating node: only the gmin shunt can carry it,
    so every Newton strategy runs out of iterations).

    ``corner_name`` restricts the poison to one PVT corner, so a marked
    candidate converges at the other corners -- the per-(candidate,
    corner) isolation scenario.
    """

    def __init__(self, poison_width: float, corner_name: str | None = None):
        super().__init__()
        self._poison = poison_width
        self._corner_name = corner_name

    def build_circuit(self, widths, corner=None):
        circuit = super().build_circuit(widths, corner=corner)
        if widths.get("M1") == self._poison and (
            self._corner_name is None
            or resolve_corner(corner).name == self._corner_name
        ):
            circuit.add_isource("IPOISON", "poison", "0", dc=1.0)
        return circuit


class CountingBackend(BatchedBackend):
    """Records every bulk verification call: (topology name, #candidates)."""

    def __init__(self):
        self.calls: list[tuple[str, int]] = []

    def measure_sweeps(self, topology, widths_list, corners, analyses, specs=None):
        self.calls.append((topology.name, len(widths_list)))
        return super().measure_sweeps(topology, widths_list, corners, analyses, specs)


class UngatedBackend(BatchedBackend):
    """Stage IV without the transient gate: drops the specs, so every
    converged candidate-corner pair runs its transient."""

    def measure_sweeps(self, topology, widths_list, corners, analyses, specs=None):
        return super().measure_sweeps(topology, widths_list, corners, analyses)


def assert_measurements_identical(reference, result) -> None:
    """Field-by-field bit-identity of two ``MeasurementResult`` objects
    (AC metrics, transient metrics, DC solution and device parameters)."""
    assert np.array_equal(
        reference.metrics.as_array(), result.metrics.as_array(), equal_nan=True
    )
    assert np.array_equal(
        reference.metrics.tran_as_array(), result.metrics.tran_as_array(), equal_nan=True
    )
    assert reference.dc.node_voltages == result.dc.node_voltages
    assert reference.dc.iterations == result.dc.iterations
    assert reference.dc.strategy == result.dc.strategy
    assert reference.device_params == result.device_params


def assert_outcomes_identical(reference, outcome) -> None:
    """One aligned ``MeasureOutcome`` pair: same verdict, and bit-identical
    measurements when both succeeded."""
    assert reference.ok == outcome.ok
    if not reference.ok:
        assert outcome.error is not None
        return
    assert_measurements_identical(reference.result, outcome.result)


def assert_sweeps_identical(reference, sweep) -> None:
    """One aligned ``CornerSweep`` pair, outcome by outcome."""
    assert reference.corners == sweep.corners
    for ref_outcome, outcome in zip(reference.outcomes, sweep.outcomes, strict=True):
        assert_outcomes_identical(ref_outcome, outcome)


class BatchedOracleModel(SizingModel):
    """A 'perfect transformer' stand-in: returns the device parameters of
    the dataset design whose metrics are closest to the request.  Shared
    by the engine-semantics tests (``test_service``) and the serving-layer
    tests (``test_serve``)."""

    def __init__(self, topology, records, luts):
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
        self.single_calls = 0
        self.batch_calls = 0

    def predict_params(self, topology_name, spec, max_len=None):
        self.single_calls += 1

        def distance(record):
            return (
                abs(np.log(record.gain_db / spec.gain_db))
                + abs(np.log(record.f3db_hz / spec.f3db_hz))
                + abs(np.log(record.ugf_hz / spec.ugf_hz))
            )

        best = min(self._records, key=distance)
        values = {g: dict(p) for g, p in best.device_params.items()}
        return ParsedParams(values=values, complete=True), f"<oracle:{best.gain_db:.3f}>"

    def predict_params_many(self, specs_by_topology, max_len=None):
        outputs = {}
        self.batch_calls += 1
        for name, specs in specs_by_topology.items():
            outputs[name] = []
            for spec in specs:
                outputs[name].append(self.predict_params(name, spec, max_len))
                self.single_calls -= 1  # don't double count the delegation
        return outputs


@pytest.fixture(scope="session")
def oracle_setup():
    """A measured 5T-OTA mini-dataset plus shared LUTs for oracle models.

    Session-scoped: the dataset (real SPICE measurements) is generated
    once and shared by ``test_service`` and ``test_serve``."""
    from repro.datagen import DesignFilter, generate_dataset

    topology = FiveTransistorOTA()
    rng = np.random.default_rng(11)
    dataset = generate_dataset(
        topology, 10, rng,
        design_filter=DesignFilter(topology, check_icmr=False),
        max_attempts=400,
    )
    assert len(dataset) >= 6
    luts = {NMOS_65NM.name: build_lut(NMOS_65NM), PMOS_65NM.name: build_lut(PMOS_65NM)}
    return topology, dataset.records, luts


def assert_responses_identical(sequential, batched) -> None:
    """Field-by-field bit-identity of two ``SizingResponse`` lists."""
    assert len(sequential) == len(batched)
    for ref, got in zip(sequential, batched, strict=True):
        assert ref.request_id == got.request_id
        assert ref.success == got.success
        assert ref.widths == got.widths
        assert ref.iterations == got.iterations
        assert ref.spice_simulations == got.spice_simulations
        assert ref.decoded_texts == got.decoded_texts
        assert (ref.metrics is None) == (got.metrics is None)
        if ref.metrics is not None:
            assert np.array_equal(
                ref.metrics.as_array(), got.metrics.as_array(), equal_nan=True
            )
            assert np.array_equal(
                ref.metrics.tran_as_array(), got.metrics.tran_as_array(), equal_nan=True
            )
