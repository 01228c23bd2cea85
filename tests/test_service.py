"""Tests of the batched sizing service: requests, cache, engine, CLI.

The parity tests are the contract of the service redesign: batched
decoding (per-length sources, per-sequence EOS) must produce *bit-identical*
decoded texts and widths to sizing each request alone, and the
round-batched Stage IV (one ``measure_sweeps`` per topology per round)
must produce bit-identical traces and accounting to the sequential
per-candidate verification backend.
"""

import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import DesignSpec, PipelineConfig, train_sizing_model
from repro.core.bundle import SizingModel
from repro.datagen import SequenceBuilder, SequenceConfig
from repro.datagen.serialize import ParsedParams
from repro.service import (
    EngineStats,
    ResultCache,
    SizingEngine,
    SizingRequest,
    SizingResponse,
)
from repro.service.cache import quantize_spec
from repro.service.requests import ROUND_OUTCOMES
from repro.devices import Corner, resolve_corners
from repro.solvers import BatchedBackend, EvalBackend
from repro.spice import PerformanceMetrics
from repro.topologies import (
    DEFAULT_ANALYSES,
    TRAN_ANALYSES,
    FiveTransistorOTA,
    available_topologies,
    register,
    topology_by_name,
    unregister,
)

from tests.conftest import (
    BatchedOracleModel,
    CountingBackend,
    PoisonedFiveT,
    assert_responses_identical,
)
from tests.scalar_reference import ScalarBackend, end_round_every_round

# ----------------------------------------------------------------------
# Topology registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_paper_topologies_registered(self):
        assert {"5T-OTA", "CM-OTA", "2S-OTA"} <= set(available_topologies())

    def test_register_and_unregister_custom(self):
        register(lambda: FiveTransistorOTA(), name="TEST-OTA")
        try:
            assert "TEST-OTA" in available_topologies()
            assert topology_by_name("TEST-OTA").name == "5T-OTA"
        finally:
            unregister("TEST-OTA")
        assert "TEST-OTA" not in available_topologies()


# ----------------------------------------------------------------------
# Request/response JSON round trips
# ----------------------------------------------------------------------
class TestRequestJSON:
    def test_round_trip(self):
        request = SizingRequest.for_spec(
            "5T-OTA", 25.0, 5e6, 8e7, id="r1", max_iterations=4, rel_tol=0.01,
            method="pso", budget=200,
        )
        restored = SizingRequest.from_json_line(request.to_json_line())
        assert restored == request

    def test_ids_auto_generated_and_unique(self):
        a = SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7)
        b = SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7)
        assert a.id != b.id

    def test_optional_fields_default(self):
        request = SizingRequest.from_json(
            {"topology": "5T-OTA", "gain_db": 25.0, "f3db_hz": 5e6, "ugf_hz": 8e7}
        )
        assert request.max_iterations == 6
        assert request.rel_tol == 0.0
        assert request.method == "copilot"
        assert request.budget is None
        assert request.iteration_budget == 6

    def test_budget_overrides_copilot_iterations(self):
        request = SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, budget=2)
        assert request.iteration_budget == 2

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            SizingRequest.from_json({"topology": "5T-OTA", "gain_db": 25.0})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SizingRequest.from_json(
                {"topology": "5T-OTA", "gain_db": 25.0, "f3db_hz": 5e6,
                 "ugf_hz": 8e7, "bogus": 1}
            )

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SizingRequest.for_spec("5T-OTA", -1.0, 5e6, 8e7)
        with pytest.raises(ValueError):
            SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, max_iterations=-1)
        with pytest.raises(ValueError):
            SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, rel_tol=1.5)
        with pytest.raises(ValueError):
            SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, method="")
        with pytest.raises(ValueError):
            SizingRequest.for_spec("5T-OTA", 25.0, 5e6, 8e7, budget=-1)
        # NaN and +inf pass DesignSpec's positivity check; the request
        # rejects every non-finite target, transient ones included.
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                SizingRequest.for_spec("5T-OTA", bad, 5e6, 8e7)
            with pytest.raises(ValueError):
                SizingRequest.for_spec("5T-OTA", 25.0, bad, 8e7)
            with pytest.raises(ValueError):
                SizingRequest.for_spec("5T-OTA", 25.0, 5e6, bad)
            with pytest.raises(ValueError):
                SizingRequest(
                    topology="5T-OTA", spec=DesignSpec(25.0, 5e6, 8e7, slew_v_per_s=bad)
                )


    #: A wrong type in a field the parser converts: each was a TypeError
    #: (or a crash) before the parser checked it.
    ILL_TYPED = {
        "null target": ({"gain_db": None}, "gain_db must be a number"),
        "null tolerance": ({"rel_tol": None}, "rel_tol must be a number"),
        "scalar corners": ({"corners": 5}, "corners must be a list"),
        "list count": ({"max_iterations": [1]}, "max_iterations must be a number"),
        "corner entry": ({"corners": [5]}, "cannot resolve a corner"),
        "scalar analyses": ({"analyses": 5}, "analyses must be a list"),
        "huge target": ({"ugf_hz": 10**400}, "ugf_hz must be a number"),
        "boolean vdd_scale": (
            {"corners": [{"process": "ss", "vdd_scale": True}]},
            "vdd_scale must be a number, not True",
        ),
        "boolean kp_scale": ({"corners": [{"kp_scale": False}]}, "kp_scale must be a number"),
        "null vt0_scale": ({"corners": [{"vt0_scale": None}]}, "vt0_scale must be a number"),
        "null temperature": (
            {"corners": [{"temperature_k": None}]}, "temperature_k must be a number"
        ),
        "numeric analysis": ({"analyses": ["x", 1]}, "analysis names must be strings, not 1"),
        "nested analysis": ({"analyses": [["dc"]]}, r"must be strings, not \['dc'\]"),
        "null id": ({"id": None}, "request id must be a non-empty string"),
        "numeric topology": ({"topology": 5}, "topology must be a non-empty string"),
        "null method": ({"method": None}, "method must be a non-empty string"),
    }

    @pytest.mark.parametrize("case", sorted(ILL_TYPED))
    def test_ill_typed_field_is_a_value_error(self, case):
        bad, message = self.ILL_TYPED[case]
        good = {"topology": "5T-OTA", "gain_db": 25.0, "f3db_hz": 5e6, "ugf_hz": 8e7}
        with pytest.raises(ValueError, match=message):
            SizingRequest.from_json({**good, **bad})

    def test_numbers_taken_as_sent(self):
        """A boolean is no number and a count no fraction: ``float(True)``
        would size a 1 dB target and ``int(2.9)`` run 2 rounds."""
        good = {"topology": "5T-OTA", "gain_db": 25.0, "f3db_hz": 5e6, "ugf_hz": 8e7}
        for name in ("gain_db", "f3db_hz", "rel_tol", "slew_v_per_s", "max_iterations"):
            with pytest.raises(ValueError, match=f"{name} must be a number, not True"):
                SizingRequest.from_json({**good, name: True})
        with pytest.raises(ValueError, match="max_iterations must be a whole number, not 2.9"):
            SizingRequest.from_json({**good, "max_iterations": 2.9})
        with pytest.raises(ValueError, match="budget must be a whole number, not 10.5"):
            SizingRequest.from_json({**good, "method": "pso", "budget": 10.5})
        # An integral float is the count it spells.
        request = SizingRequest.from_json({**good, "max_iterations": 2.0, "budget": 3.0})
        assert (request.max_iterations, request.budget) == (2, 3)


class TestResponseJSON:
    def _response(self, **overrides):
        payload = dict(
            request_id="r1",
            topology="5T-OTA",
            success=True,
            widths={"M1": 1.2e-6, "M3": 1.5e-5},
            metrics=PerformanceMetrics(25.3, 5.4e6, 9.1e7),
            iterations=1,
            spice_simulations=1,
            wall_time_s=0.25,
            decoded_texts=("gmM1=2.50mS",),
        )
        payload.update(overrides)
        return SizingResponse(**payload)

    def test_round_trip(self):
        response = self._response()
        restored = SizingResponse.from_json_line(response.to_json_line())
        assert restored == response

    def test_round_trip_failure_without_metrics(self):
        response = self._response(success=False, widths=None, metrics=None, error="boom")
        restored = SizingResponse.from_json_line(response.to_json_line())
        assert restored == response

    def test_nan_metrics_serialize_as_null(self):
        response = self._response(metrics=PerformanceMetrics(25.0, float("nan"), 9e7))
        payload = json.loads(response.to_json_line())
        assert payload["metrics"]["f3db_hz"] is None
        restored = SizingResponse.from_json(payload)
        assert math.isnan(restored.metrics.f3db_hz)
        assert restored.metrics.gain_db == 25.0

    def test_single_simulation_property(self):
        assert self._response().single_simulation
        assert not self._response(spice_simulations=2).single_simulation
        assert not self._response(success=False).single_simulation

    def test_method_round_trips_and_defaults(self):
        response = self._response(method="de")
        restored = SizingResponse.from_json_line(response.to_json_line())
        assert restored.method == "de"
        # Pre-redesign payloads (no method key) parse as copilot responses.
        payload = json.loads(self._response().to_json_line())
        del payload["method"]
        assert SizingResponse.from_json(payload).method == "copilot"


# ----------------------------------------------------------------------
# Spec quantization
# ----------------------------------------------------------------------
class TestQuantizeSpec:
    def test_rounds_to_three_significant_digits(self):
        assert quantize_spec(25.004) == 25.0
        assert quantize_spec(1.23456e6) == 1.23e6
        assert quantize_spec(9.999e-7, sig_digits=2) == 1.0e-6

    @pytest.mark.parametrize(
        "value", [float("inf"), float("-inf"), float("nan")]
    )
    def test_non_finite_value_rejected(self, value):
        # Regression: inf survives %g formatting and nan never equals
        # itself, so a non-finite target used to poison cache keys
        # silently instead of failing at the bad request.
        with pytest.raises(ValueError, match="non-finite"):
            quantize_spec(value)

    def test_non_finite_spec_cannot_form_a_cache_key(self):
        # inf passes DesignSpec's positivity validation, but a request
        # carrying it is rejected at construction, so no cache key is ever
        # formed from it (quantize_spec's own guard is pinned above).
        with pytest.raises(ValueError, match="finite"):
            SizingRequest.for_spec("5T-OTA", float("inf"), 5e6, 8e7)


# ----------------------------------------------------------------------
# LRU result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def _request(self, gain=25.0, **kwargs):
        return SizingRequest.for_spec("5T-OTA", gain, 5e6, 8e7, **kwargs)

    def _response(self, request, success=True, metrics="auto"):
        if metrics == "auto":
            # Comfortably above the default request targets.
            metrics = PerformanceMetrics(26.0, 6e6, 9e7)
        return SizingResponse(
            request_id=request.id, topology=request.topology, success=success,
            widths={"M1": 1e-6}, metrics=metrics, iterations=1,
            spice_simulations=1, wall_time_s=0.1,
        )

    def test_near_duplicate_hits_after_quantization(self):
        cache = ResultCache()
        request = self._request(gain=25.0)
        cache.put(request, self._response(request))
        # 25.004 quantizes to 25.0 at 3 significant digits, and the cached
        # design's 26.0 dB measurement satisfies the new exact target too.
        near = self._request(gain=25.004, id="other")
        hit = cache.get(near)
        assert hit is not None
        assert hit.cached
        assert hit.request_id == "other"

    def test_near_duplicate_not_served_when_metrics_fall_short(self):
        """A cached success must not transfer to a (quantization-equal)
        request whose exact targets the cached design misses."""
        cache = ResultCache()
        request = self._request(gain=25.0)
        # Measured gain 25.01: satisfies 25.0 but not 25.04.
        cache.put(
            request,
            self._response(request, metrics=PerformanceMetrics(25.01, 6e6, 9e7)),
        )
        tighter = self._request(gain=25.04, id="tighter")
        assert cache.get(tighter) is None

    def test_failure_served_only_for_exact_spec(self):
        cache = ResultCache()
        request = self._request(gain=25.0)
        cache.put(request, self._response(request, success=False, metrics=None))
        # Identical spec: deterministic flow, failure transfers.
        assert cache.get(self._request(gain=25.0, id="same")) is not None
        # Near-duplicate: a fresh run might succeed — don't serve the failure.
        assert cache.get(self._request(gain=25.004, id="near")) is None

    def test_different_loop_params_miss(self):
        cache = ResultCache()
        request = self._request()
        cache.put(request, self._response(request))
        assert cache.get(self._request(max_iterations=3)) is None
        assert cache.get(self._request(rel_tol=0.01)) is None

    def test_lru_eviction(self):
        cache = ResultCache(maxsize=2)
        first, second, third = (self._request(gain=20.0 + i) for i in range(3))
        cache.put(first, self._response(first))
        cache.put(second, self._response(second))
        assert cache.get(first) is not None  # refresh: now `second` is LRU
        cache.put(third, self._response(third))
        assert len(cache) == 2
        assert cache.get(second) is None
        assert cache.get(first) is not None
        assert cache.get(third) is not None


# ----------------------------------------------------------------------
# Engine parity with the sequential path (real tiny transformer)
# ----------------------------------------------------------------------
TINY_SERVICE = PipelineConfig(
    designs_per_topology=(("5T-OTA", 25), ("CM-OTA", 16)),
    epochs=2,
    d_model=32,
    n_heads=4,
    d_ff=48,
    dropout=0.0,
    num_merges=150,
    encoder_max_paths=1,
    learning_rate=1e-3,
    batch_size=8,
    dtype="float32",
    seed=7,
)


@pytest.fixture(scope="module")
def tiny_artifacts():
    return train_sizing_model(TINY_SERVICE)


class TestBatchedDecodeParity:
    """Batched and sequential decodes are compared with *exact* equality.

    This leans on row independence (each source is encoded at its own
    length; masked keys get exactly zero weight; each row of a decode-step
    product reduces in the same order whether the batch runs it as a
    matrix-vector or a matrix-matrix product on numpy's BLAS).  If a
    future BLAS build breaks the bitwise assumption, these asserts are
    the early-warning signal — expect at most a last-ulp
    logit difference flipping a near-tie argmax.
    """

    def test_predict_params_batch_matches_sequential(self, tiny_artifacts):
        model = tiny_artifacts.model
        for name in ("5T-OTA", "CM-OTA"):
            records = (tiny_artifacts.val_records[name] + tiny_artifacts.train_records[name])[:8]
            specs = [DesignSpec(r.gain_db, r.f3db_hz, r.ugf_hz) for r in records]
            sequential = [model.predict_params(name, spec)[1] for spec in specs]
            batched = [text for _, text in model.predict_params_many({name: specs})[name]]
            assert batched == sequential

    def test_predict_params_many_fuses_topologies(self, tiny_artifacts):
        """A cross-topology fused decode must match per-spec decodes."""
        model = tiny_artifacts.model
        specs_by_topology = {
            name: [
                DesignSpec(r.gain_db, r.f3db_hz, r.ugf_hz)
                for r in tiny_artifacts.val_records[name][:3]
            ]
            for name in ("5T-OTA", "CM-OTA")
        }
        fused = model.predict_params_many(specs_by_topology)
        for name, specs in specs_by_topology.items():
            sequential = [model.predict_params(name, spec)[1] for spec in specs]
            assert [text for _, text in fused[name]] == sequential

    def test_empty_batch(self, tiny_artifacts):
        assert tiny_artifacts.model.predict_params_many({"5T-OTA": []}) == {"5T-OTA": []}

    def test_size_batch_matches_sequential_flows(self, tiny_artifacts):
        """The headline parity contract over mixed topologies."""
        requests = []
        for name in ("5T-OTA", "CM-OTA"):
            for record in tiny_artifacts.val_records[name][:2]:
                requests.append(
                    SizingRequest.for_spec(
                        name, record.gain_db, record.f3db_hz, record.ugf_hz,
                        max_iterations=2,
                    )
                )
        alone = SizingEngine(tiny_artifacts.model, cache_size=0)
        sequential = [alone.size_batch([r])[0] for r in requests]
        engine = SizingEngine(tiny_artifacts.model, cache_size=0)
        responses = engine.size_batch(requests)
        assert [r.request_id for r in responses] == [r.id for r in requests]
        # The wire schema stamps the request's method explicitly, never
        # relying on the dataclass default.
        assert [r.method for r in responses] == ["copilot"] * len(requests)
        for result, response in zip(sequential, responses, strict=True):
            assert [t.decoded_text for t in result.trace] == list(response.decoded_texts)
            assert result.widths == response.widths
            assert result.success == response.success
            assert result.iterations == response.iterations
            assert result.spice_simulations == response.spice_simulations


# ----------------------------------------------------------------------
# Engine semantics through a deterministic oracle model (SPICE exercised)
# ----------------------------------------------------------------------
# The oracle model and the measured mini-dataset (``oracle_setup``)
# moved to tests/conftest.py — they are shared with test_serve.py.


class _RowCountingOracle(BatchedOracleModel):
    """The oracle, recording how many rows each fused decode call gets."""

    def __init__(self, topology, records, luts):
        super().__init__(topology, records, luts)
        self.rows: list[int] = []

    def predict_params_many(self, specs_by_topology, max_len=None):
        self.rows.append(sum(len(specs) for specs in specs_by_topology.values()))
        return super().predict_params_many(specs_by_topology, max_len)


def _wire_without_time(response):
    payload = response.to_json()
    payload.pop("wall_time_s")
    return payload


class TestEngineServing:
    def _engine(self, oracle_setup, **kwargs):
        topology, records, luts = oracle_setup
        model = BatchedOracleModel(topology, records, luts)
        engine = SizingEngine(model, **kwargs)
        engine.adopt_topology(topology)
        return engine, model, records

    def _achievable(self, record, **kwargs):
        return SizingRequest.for_spec(
            "5T-OTA",
            record.gain_db * 0.995,
            record.f3db_hz * 0.98,
            record.ugf_hz * 0.98,
            **kwargs,
        )

    def test_batch_uses_batched_decode_and_sizes(self, oracle_setup):
        engine, model, records = self._engine(oracle_setup, cache_size=0)
        requests = [self._achievable(r) for r in records[:4]]
        responses = engine.size_batch(requests)
        assert all(r.success for r in responses)
        # The oracle is near-perfect: most specs close in one simulation,
        # the rest within the copilot budget.
        assert sum(r.single_simulation for r in responses) >= 3
        assert model.batch_calls >= 1
        assert engine.stats.spice_simulations == sum(r.spice_simulations for r in responses)

    def test_single_request_uses_single_path(self, oracle_setup):
        """A single request takes the one decode path: one one-row
        ``predict_params_many`` call per round."""
        engine, model, records = self._engine(oracle_setup, cache_size=0)
        response = engine.size(self._achievable(records[0]))
        assert response.success
        assert model.batch_calls == response.iterations
        assert model.single_calls == 0

    def test_cache_skips_inference_for_duplicates(self, oracle_setup):
        engine, model, records = self._engine(oracle_setup, cache_size=16)
        request = self._achievable(records[0], id="first")
        first = engine.size(request)
        sequences_after_first = engine.stats.inference_sequences
        repeat = self._achievable(records[0], id="repeat")
        second = engine.size(repeat)
        assert engine.stats.inference_sequences == sequences_after_first
        assert engine.stats.cache_hits == 1
        assert second.cached and not first.cached
        assert second.request_id == "repeat"
        assert second.widths == first.widths

    def test_in_batch_duplicates_coalesce(self, oracle_setup):
        engine, model, records = self._engine(oracle_setup, cache_size=16)
        requests = [
            self._achievable(records[0], id="lead"),
            self._achievable(records[1], id="other"),
            self._achievable(records[0], id="dupe"),
        ]
        responses = engine.size_batch(requests)
        assert [r.request_id for r in responses] == ["lead", "other", "dupe"]
        assert responses[2].cached
        assert responses[2].widths == responses[0].widths
        assert engine.stats.spice_simulations == 2

    def test_cache_and_coalesce_counters_agree(self, oracle_setup):
        """``EngineStats.cache_hits`` must mirror ``ResultCache.hits``;
        in-batch duplicate followers are counted under ``coalesced``."""
        engine, model, records = self._engine(oracle_setup, cache_size=16)
        warm = self._achievable(records[0], id="warm")
        engine.size(warm)  # populates the cache (a miss on the way in)
        requests = [
            self._achievable(records[0], id="hit"),       # cache hit
            self._achievable(records[1], id="lead"),
            self._achievable(records[1], id="dupe"),      # in-batch duplicate
            self._achievable(records[2], id="fresh"),
        ]
        responses = engine.size_batch(requests)
        assert [r.request_id for r in responses] == ["hit", "lead", "dupe", "fresh"]
        assert engine.stats.cache_hits == 1
        assert engine.stats.coalesced == 1
        # The drift this pins: engine counters and cache counters agree.
        assert engine.stats.cache_hits == engine.cache.hits
        # warm, lead, dupe and fresh consulted the cache and missed (the
        # duplicate coalesces on the in-batch leader, not on the cache).
        assert engine.cache.misses == 4

    def test_responses_stamp_request_method(self, oracle_setup):
        """Success, failure and error responses all carry the request's
        method explicitly (never the dataclass default)."""
        engine, model, records = self._engine(oracle_setup, cache_size=16)
        ok = engine.size(self._achievable(records[0]))
        assert ok.success and ok.method == "copilot"
        failed = engine.size(
            SizingRequest.for_spec("5T-OTA", 90.0, 1e9, 1e11, max_iterations=1)
        )
        assert not failed.success and failed.method == "copilot"
        error = engine.size(SizingRequest.for_spec("MISSING-OTA", 25.0, 5e6, 8e7))
        assert error.error is not None and error.method == "copilot"

    def test_unknown_topology_yields_error_response(self, oracle_setup):
        engine, model, records = self._engine(oracle_setup, cache_size=0)
        good = self._achievable(records[0])
        bad = SizingRequest.for_spec("MISSING-OTA", 25.0, 5e6, 8e7)
        responses = engine.size_batch([bad, good])
        assert not responses[0].success
        assert "MISSING-OTA" in responses[0].error
        assert responses[1].success

    def test_failed_request_reports_best_iterate(self, oracle_setup):
        """The 'best' tracker must keep the closest attempt, not the last."""
        engine, model, records = self._engine(oracle_setup, cache_size=0)
        impossible = SizingRequest.for_spec(
            "5T-OTA", 90.0, 1e9, 1e11, max_iterations=3
        )
        response = engine.size(impossible)
        assert not response.success
        assert response.metrics is not None  # best effort reported
        shortfalls = [
            sum(impossible.spec.miss_fractions(t.metrics).values())
            for t in response.trace if t.metrics is not None
        ]
        best_reported = sum(impossible.spec.miss_fractions(response.metrics).values())
        assert best_reported == min(shortfalls)

    def test_response_trace_is_in_process_only(self, oracle_setup):
        """A copilot response carries one trace entry per round, never on
        the wire, and a JSON round trip still equals the response."""
        engine, model, records = self._engine(oracle_setup, cache_size=0)
        impossible = SizingRequest.for_spec("5T-OTA", 90.0, 1e9, 1e11, max_iterations=3)
        ok, failed = engine.size_batch([self._achievable(records[0]), impossible])
        assert ok.success and not failed.success and failed.iterations == 3
        for response in (ok, failed):
            assert len(response.trace) == response.iterations
            assert tuple(t.decoded_text for t in response.trace) == response.decoded_texts
            assert "trace" not in response.to_json()
        assert ok.trace[-1].outcome == "success" and ok.trace[-1].widths == ok.widths
        assert SizingResponse.from_json(ok.to_json()) == ok

    def test_untrained_topology_copilot_request_fails_alone(self, oracle_setup):
        """A copilot request for a topology the model was not trained on
        gets an error response naming the trained ones, before the fused
        decode: its neighbour decodes alone and answers as if alone, and
        the model's builders are left as they were."""
        topology, records, luts = oracle_setup
        model = _RowCountingOracle(topology, records, luts)
        engine = SizingEngine(model, cache_size=0)
        engine.adopt_topology(topology)
        untrained = SizingRequest.for_spec("CM-OTA", 24.0, 1.5e7, 2.5e8, id="cm")
        clean = self._achievable(records[0], id="clean")
        error, response = engine.size_batch([untrained, clean])
        assert not error.success and error.iterations == 0
        assert "'CM-OTA' is not in this model bundle (trained: 5T-OTA)" in error.error
        assert model.rows == [1] * response.iterations
        assert list(model.builders) == ["5T-OTA"]
        alone, _, _ = self._engine(oracle_setup, cache_size=0)
        assert _wire_without_time(response) == _wire_without_time(alone.size(clean))

    def test_zero_iteration_budget_fails_gracefully(self, oracle_setup):
        """max_iterations=0 returns a failed response without inference."""
        engine, model, records = self._engine(oracle_setup, cache_size=0)
        response = engine.size(self._achievable(records[0], max_iterations=0))
        assert not response.success
        assert response.iterations == 0
        assert response.spice_simulations == 0
        assert model.single_calls == 0

        (response,) = engine.size_batch(
            [SizingRequest.for_spec("5T-OTA", 25.0, 3e6, 6e7, max_iterations=0)]
        )
        assert not response.success and response.iterations == 0
        assert response.trace == ()
        assert model.single_calls == 0 and model.batch_calls == 0

    def test_run_sizing_study_uses_batched_inference(self, oracle_setup):
        """Table VIII studies must ride the engine's fused-decode path and
        stay identical to sizing each spec alone."""
        from repro.core import run_sizing_study

        engine, model, records = self._engine(oracle_setup, cache_size=0)
        specs = [
            DesignSpec(r.gain_db * 0.995, r.f3db_hz * 0.98, r.ugf_hz * 0.98)
            for r in records[:4]
        ]
        study = run_sizing_study(engine, "5T-OTA", specs)
        assert study.total == len(specs)
        assert study.topology_name == "5T-OTA"
        assert model.batch_calls >= 1  # fused decode, not a per-spec loop

        reference_engine, _, _ = self._engine(oracle_setup, cache_size=0)
        for spec, result in zip(specs, study.results, strict=True):
            (reference,) = reference_engine.size_batch(
                [SizingRequest(topology="5T-OTA", spec=spec)]
            )
            assert reference.widths == result.widths
            assert reference.success == result.success
            assert reference.spice_simulations == result.spice_simulations
            assert reference.iterations == result.iterations

    def test_flow_delegates_to_engine(self, oracle_setup):
        """One spec through ``size_batch`` is one engine request."""
        engine, model, records = self._engine(oracle_setup, cache_size=0)
        (result,) = engine.size_batch([self._achievable(records[0])])
        assert result.success
        assert result.single_simulation
        # One fused one-row decode per round, like any engine request.
        assert model.batch_calls == result.iterations
        assert model.single_calls == 0


# ----------------------------------------------------------------------
# Round outcomes: one record per round, the response read from the trace
# ----------------------------------------------------------------------
class _ScriptedOracle(BatchedOracleModel):
    """Answers each request's rounds from its own script of per-group
    parameter sets (``None``: an unparseable decode).  A round's spec
    drifts from its request's only by nudges and margin allocation, so the
    nearest scripted gain target names the request.  Like a greedy decode,
    it answers a spec it has already seen with its first answer."""

    def __init__(self, topology, records, luts, scripts):
        super().__init__(topology, records, luts)
        self._scripts = scripts
        self._rounds = dict.fromkeys(scripts, 0)
        self._answers = {}

    def predict_params_many(self, specs_by_topology, max_len=None):
        return {
            name: [self._decode(spec) for spec in specs]
            for name, specs in specs_by_topology.items()
        }

    def _decode(self, spec):
        if spec not in self._answers:
            original = min(self._scripts, key=lambda s: abs(math.log(s.gain_db / spec.gain_db)))
            k = self._rounds[original]
            self._rounds[original] += 1
            values = self._scripts[original][k]
            text = f"<{original.gain_db:.3g} dB, round {k + 1}>"
            parsed = ParsedParams(complete=False) if values is None else ParsedParams(values=values)
            self._answers[spec] = parsed, text
        return self._answers[spec]


class TestRoundOutcomes:
    def test_rounds_end_once_with_an_outcome_and_the_response_reads_the_trace(
        self, oracle_setup, monkeypatch
    ):
        """One batch drives all five outcomes.  Each response's counts, texts
        and reported design come from its trace, and the batch counts only
        the rounds it ran: a round filled in at a margin-allocation fixed
        point counts as replayed, and a coalesced duplicate and a later
        cache hit carry another request's trace and add none."""
        topology, records, luts = oracle_setup
        params = [{g: dict(p) for g, p in r.device_params.items()} for r in records]
        probe = SizingEngine(BatchedOracleModel(topology, records, luts), cache_size=0)
        widths = [probe.widths_from_params(topology, p) for p in params[:3]]
        # Five positive width candidates always spread by less than 5, the
        # engine's bound, so a lower bound is what lets a Cgs a million
        # times off be rejected.
        monkeypatch.setattr("repro.service.engine._MAX_CANDIDATE_SPREAD", 1.0)
        rejected = {g: dict(p, cgs=p["cgs"] * 1e6) for g, p in params[0].items()}
        # Design 1 meets spec_all at tt and ss; design 2 does not converge at ss.
        corners = ("tt", "ss")
        (sweep,) = BatchedBackend().measure_sweeps(
            topology, [widths[1]], resolve_corners(corners), DEFAULT_ANALYSES
        )
        reached = sweep.metrics_by_corner().values()
        spec_all = DesignSpec(*(
            0.99 * min(getattr(m, name) for m in reached)
            for name in ("gain_db", "f3db_hz", "ugf_hz")
        ))
        spec_far, spec_mute = DesignSpec(90.0, 1e9, 1e11), DesignSpec(10.0, 1e6, 1e7)
        model = _ScriptedOracle(topology, records, luts, {
            spec_all: [None, rejected, params[2], params[1]],
            spec_far: [params[3], params[4]],
            spec_mute: [None, None],
        })
        engine = SizingEngine(model, cache_size=16)
        engine.adopt_topology(PoisonedFiveT(widths[2]["M1"], corner_name="ss"))
        responses = engine.size_batch([
            SizingRequest("5T-OTA", spec_all, id="all", corners=corners),
            SizingRequest("5T-OTA", spec_far, id="far", max_iterations=3),
            SizingRequest("5T-OTA", spec_mute, id="mute", max_iterations=2),
            SizingRequest("5T-OTA", spec_far, id="far-again", max_iterations=3),
        ])

        outcomes = [[t.outcome for t in r.trace] for r in responses]
        assert outcomes == [
            ["unparseable", "lut_rejected", "nonconverged", "success"],
            ["miss"] * 3,
            ["unparseable"] * 2,
            ["miss"] * 3,
        ]
        assert {o for row in outcomes for o in row} == set(ROUND_OUTCOMES)
        for response in responses:
            assert response.iterations == len(response.trace)
            assert response.spice_simulations == sum(t.simulations for t in response.trace)
            assert response.decoded_texts == tuple(t.decoded_text for t in response.trace)

        every, far, mute, far_again = responses
        nonconverged, success = every.trace[2:]
        assert nonconverged.widths == widths[2] and nonconverged.metrics is None
        assert nonconverged.simulations == 1  # tt converged, ss did not
        assert every.success and every.spice_simulations == 3
        reported = (every.widths, every.metrics, every.corner_metrics, every.worst_corner)
        assert reported == (
            success.widths, success.metrics, success.corner_metrics, success.worst_corner
        )
        assert set(every.corner_metrics) == {"tt", "ss"}
        # min() keeps the first of equal shortfalls, as the engine does.
        closest = min(far.trace, key=lambda t: spec_far.shortfall(t.metrics))
        assert not far.success and (far.widths, far.metrics) == (closest.widths, closest.metrics)
        assert far.corner_metrics is None and far.worst_corner is None
        assert not mute.success and mute.widths is None and mute.metrics is None
        assert mute.spice_simulations == 0
        assert far_again.cached and far_again.trace == far.trace

        # far's second round asks for the capped spec, which margin
        # allocation hands back: its third round is that record, not run.
        assert far.trace[2] == far.trace[1] and far.spice_simulations == 3
        rounds = {
            "rounds_unparseable": 3, "rounds_lut_rejected": 1, "rounds_nonconverged": 1,
            "rounds_miss": 2, "rounds_success": 1,
        }
        stats = engine.stats.as_dict()
        assert {name: stats[name] for name in rounds} == rounds
        assert sum(rounds.values()) == stats["inference_sequences"]  # one per decoded row
        assert stats["rounds_replayed"] == 1
        assert stats["spice_simulations"] == 5 and stats["coalesced"] == 1
        (hit,) = engine.size_batch([SizingRequest("5T-OTA", spec_all, id="hit", corners=corners)])
        assert hit.cached and hit.trace == every.trace
        assert engine.stats.as_dict() == {**stats, "requests": 5, "batches": 2, "cache_hits": 1}


# ----------------------------------------------------------------------
# Margin allocation at a fixed point: the rest of the budget is replayed
# ----------------------------------------------------------------------
PERFBENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def _without_time(response):
    """Every field of a response but its wall time, the in-process trace
    included; ``repr`` keeps NaN metrics comparable and floats exact."""
    return repr(replace(response, wall_time_s=0.0)), repr(response.trace)


class TestFixedPointReplay:
    """A round whose margin allocation hands back the spec it asked for
    ends its request: the rest of the budget repeats that round's record,
    so every response equals the every-round loop's
    (:func:`tests.scalar_reference.end_round_every_round`), and the engine
    counts only the rounds it ran."""

    @staticmethod
    def _serve_both(make_engine, requests, monkeypatch):
        engine = make_engine()
        responses = engine.size_batch(requests)
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.service.engine._ActiveRequest.end_round", end_round_every_round
            )
            every_round = make_engine()
            references = every_round.size_batch(requests)
        assert [_without_time(r) for r in responses] == [_without_time(r) for r in references]
        for stats in (engine.stats, every_round.stats):
            ran = sum(getattr(stats, f"rounds_{outcome}") for outcome in ROUND_OUTCOMES)
            assert ran == stats.inference_sequences
        assert every_round.stats.rounds_replayed == 0
        assert (
            engine.stats.inference_sequences + engine.stats.rounds_replayed
            == every_round.stats.inference_sequences
        )
        return responses, engine.stats, every_round.stats

    def test_committed_bundle_batch_matches_every_round_loop(self, monkeypatch):
        """Pool 5T specs at tt/ss/ff with their transient targets beside
        nominal 5T, CM and 2S specs, on the benchmark bundle (read-only)."""
        model = SizingModel.load(PERFBENCH_DATA / "bundle")
        pool = json.loads((PERFBENCH_DATA / "pool.json").read_text())["designs"]

        def request(topology, index, **extra):
            entry = pool[topology][index]
            if "corners" not in extra:
                entry = {name: entry[name] for name in ("gain_db", "f3db_hz", "ugf_hz")}
            payload = {"id": f"{topology}-{index}", "topology": topology, **entry, **extra}
            return SizingRequest.from_json(payload)

        pvt = {"corners": ["tt", "ss", "ff"]}
        requests = [
            *(request("5T-OTA", index, **pvt) for index in (1, 2, 21)),
            replace(request("5T-OTA", 1), id="5T-OTA-1-nominal"),
            request("CM-OTA", 0),
            request("2S-OTA", 0),
        ]
        responses, stats, every_round = self._serve_both(
            lambda: SizingEngine(model, cache_size=0), requests, monkeypatch
        )
        assert all(len(r.trace) == 6 for r in responses)
        assert (stats.inference_sequences, every_round.inference_sequences) == (24, 36)
        assert stats.spice_simulations < every_round.spice_simulations

    def test_transient_only_miss_is_a_fixed_point_after_one_round(
        self, oracle_setup, monkeypatch
    ):
        """Margin allocation tightens only the AC triple, by 1.0 when only
        a transient target missed, so the first round's spec comes back."""
        topology, records, luts = oracle_setup
        record = records[0]
        spec = DesignSpec(
            record.gain_db * 0.995, record.f3db_hz * 0.98, record.ugf_hz * 0.98,
            slew_v_per_s=1e15,
        )

        def make_engine():
            engine = SizingEngine(BatchedOracleModel(topology, records, luts), cache_size=0)
            engine.adopt_topology(topology)
            return engine

        (response,), stats, every_round = self._serve_both(
            make_engine, [SizingRequest("5T-OTA", spec, id="slew", max_iterations=4)],
            monkeypatch,
        )
        first = response.trace[0]
        assert spec.ac_satisfied(first.metrics) and not spec.satisfied(first.metrics)
        assert response.trace == (first,) * 4 and not response.success
        assert response.iterations == 4 and response.spice_simulations == 4
        assert (stats.inference_sequences, stats.rounds_replayed) == (1, 3)
        assert (stats.rounds_miss, stats.spice_simulations) == (1, 1)
        assert (every_round.rounds_miss, every_round.spice_simulations) == (4, 4)


# ----------------------------------------------------------------------
# Round-batched Stage IV parity with the sequential verification backend
# ----------------------------------------------------------------------
class _MixedOracleModel(SizingModel):
    """The oracle stand-in generalized to several topologies: answers each
    request with the parameters of that topology's closest dataset design."""

    def __init__(self, topologies, records_by_name, luts):
        builders = {
            topology.name: SequenceBuilder(topology, SequenceConfig())
            for topology in topologies
        }
        super().__init__(
            transformer=None,
            bpe=None,
            vocab=None,
            sequence_config=SequenceConfig(),
            builders=builders,
            luts=luts,
        )
        self._records = records_by_name

    def predict_params(self, topology_name, spec, max_len=None):
        from repro.datagen.serialize import ParsedParams

        def distance(record):
            return (
                abs(np.log(record.gain_db / spec.gain_db))
                + abs(np.log(record.f3db_hz / spec.f3db_hz))
                + abs(np.log(record.ugf_hz / spec.ugf_hz))
            )

        best = min(self._records[topology_name], key=distance)
        values = {g: dict(p) for g, p in best.device_params.items()}
        return ParsedParams(values=values, complete=True), f"<oracle:{best.gain_db:.3f}>"

    def predict_params_many(self, specs_by_topology, max_len=None):
        return {
            name: [self.predict_params(name, spec, max_len) for spec in specs]
            for name, specs in specs_by_topology.items()
        }


@pytest.fixture(scope="module")
def mixed_oracle_setup():
    """Small measured datasets for both paper topologies plus shared LUTs."""
    from repro.datagen import DesignFilter, generate_dataset
    from repro.devices import NMOS_65NM, PMOS_65NM
    from repro.lut import build_lut

    topologies = {name: topology_by_name(name) for name in ("5T-OTA", "CM-OTA")}
    records_by_name = {}
    for seed, (name, topology) in enumerate(topologies.items(), start=21):
        dataset = generate_dataset(
            topology, 6, np.random.default_rng(seed),
            design_filter=DesignFilter(topology, check_icmr=False),
            max_attempts=400,
        )
        assert len(dataset) >= 3
        records_by_name[name] = dataset.records
    luts = {NMOS_65NM.name: build_lut(NMOS_65NM), PMOS_65NM.name: build_lut(PMOS_65NM)}
    return topologies, records_by_name, luts


class _RecordingBackend(EvalBackend):
    """Implements only the backend's one abstract method and records what
    every call receives: (corner axis, analyses, specs)."""

    def __init__(self):
        self.inner = BatchedBackend()
        self.calls: list[tuple] = []

    def measure_sweeps(self, topology, widths_list, corners, analyses, specs=None):
        self.calls.append((corners, analyses, specs))
        return self.inner.measure_sweeps(topology, widths_list, corners, analyses, specs)


class TestBatchedStageIVParity:
    """The tentpole contract: routing Stage IV through ``measure_sweeps``
    changes throughput, never results."""

    def _engines(self, oracle_setup, topology=None):
        setup_topology, records, luts = oracle_setup
        engines = []
        for backend in (ScalarBackend(), BatchedBackend()):
            model = BatchedOracleModel(setup_topology, records, luts)
            engine = SizingEngine(model, cache_size=0, backend=backend)
            engine.adopt_topology(topology if topology is not None else setup_topology)
            engines.append(engine)
        return engines

    def _requests(self, records, **kwargs):
        return [
            SizingRequest.for_spec(
                "5T-OTA",
                r.gain_db * 0.995,
                r.f3db_hz * 0.98,
                r.ugf_hz * 0.98,
                id=f"p-{i}",
                **kwargs,
            )
            for i, r in enumerate(records)
        ]

    def test_round_batched_verification_matches_sequential(self, oracle_setup):
        _, records, _ = oracle_setup
        engine_seq, engine_batched = self._engines(oracle_setup)
        requests = self._requests(records[:4])
        sequential = engine_seq.size_batch(requests)
        batched = engine_batched.size_batch(requests)
        assert_responses_identical(sequential, batched)
        assert engine_seq.stats.spice_simulations == engine_batched.stats.spice_simulations
        # Traces too: requested specs, outcomes and widths, iteration by
        # iteration.
        for ref, got in zip(sequential, batched, strict=True):
            assert len(ref.trace) == len(got.trace)
            for t_ref, t_got in zip(ref.trace, got.trace, strict=True):
                assert t_ref.requested_spec == t_got.requested_spec
                assert t_ref.outcome == t_got.outcome
                assert t_ref.widths == t_got.widths

    def test_one_measure_many_call_per_round(self, oracle_setup):
        """All verifiable candidates of a round share one backend call."""
        topology, records, luts = oracle_setup
        model = BatchedOracleModel(topology, records, luts)
        backend = CountingBackend()
        engine = SizingEngine(model, cache_size=0, backend=backend)
        engine.adopt_topology(topology)
        requests = self._requests(records[:4], max_iterations=1)
        engine.size_batch(requests)
        assert backend.calls == [("5T-OTA", 4)]

    def test_poisoned_candidate_inside_a_round_is_isolated(self, oracle_setup):
        """One non-converging design must cost its own request a retry and
        nothing else — identically on both backends."""
        _, records, _ = oracle_setup
        # Learn the deterministic Stage III widths of one request, then
        # poison exactly that design's DC solve.
        _, probe = self._engines(oracle_setup)
        requests = self._requests(records[:3], max_iterations=2)
        probe_response = probe.size_batch([requests[1]])[0]
        assert probe_response.widths is not None
        poisoned_topology = PoisonedFiveT(probe_response.widths["M1"])

        engine_seq, engine_batched = self._engines(oracle_setup, topology=poisoned_topology)
        sequential = engine_seq.size_batch(requests)
        batched = engine_batched.size_batch(requests)
        assert_responses_identical(sequential, batched)
        # The neighbors still verified and sized normally.
        assert batched[0].success and batched[2].success
        # The poisoned first iteration consumed no simulation but the
        # request kept iterating (retry-nudge semantics intact).
        assert batched[1].iterations == 2
        assert batched[1].spice_simulations < batched[1].iterations

    def test_backend_receives_resolved_corners_and_analyses(self, oracle_setup):
        """Copilot rounds and registry solvers hand the backend each
        request's resolved corner tuple and analyses tuple as they are,
        and each candidate's spec."""
        topology, records, luts = oracle_setup
        nominal, hardened = (
            DesignSpec(r.gain_db * 0.995, r.f3db_hz * 0.98, r.ugf_hz * 0.98)
            for r in records[:2]
        )
        requests = [
            SizingRequest(topology="5T-OTA", spec=nominal, id="nominal", max_iterations=2),
            SizingRequest(
                topology="5T-OTA",
                spec=replace(hardened, settling_time_s=1e-3),
                id="pvt-tran",
                max_iterations=2,
                corners=("tt", "ss", "ff"),
            ),
            SizingRequest(topology="5T-OTA", spec=nominal, id="pso", method="pso", budget=24),
        ]

        def serve(backend):
            engine = SizingEngine(
                BatchedOracleModel(topology, records, luts), cache_size=0, backend=backend
            )
            engine.adopt_topology(topology)
            return engine.size_batch(requests)

        recording = _RecordingBackend()
        recorded = serve(recording)
        reference = serve(BatchedBackend())

        for corners, analyses, _ in recording.calls:
            assert type(corners) is tuple and type(analyses) is tuple
            assert all(isinstance(corner, Corner) for corner in corners)
        seen = {
            (tuple(c.name for c in corners), analyses) for corners, analyses, _ in recording.calls
        }
        assert seen == {((), DEFAULT_ANALYSES), (("tt", "ss", "ff"), TRAN_ANALYSES)}
        # ...and every candidate comes with the spec it is judged against.
        judged = {spec for _, _, specs in recording.calls for spec in specs}
        assert judged == {nominal, requests[1].spec}

        def wire(response):
            payload = response.to_json()
            del payload["wall_time_s"]
            return payload

        assert [wire(r) for r in recorded] == [wire(r) for r in reference]

    def test_zero_iteration_budget_skips_the_backend(self, oracle_setup):
        topology, records, luts = oracle_setup
        model = BatchedOracleModel(topology, records, luts)
        backend = CountingBackend()
        engine = SizingEngine(model, cache_size=0, backend=backend)
        engine.adopt_topology(topology)
        responses = engine.size_batch(self._requests(records[:2], max_iterations=0))
        assert all(not r.success and r.iterations == 0 for r in responses)
        assert all(r.spice_simulations == 0 for r in responses)
        assert backend.calls == []

    def test_mixed_topology_round_groups_by_topology(self, mixed_oracle_setup):
        """Mixed-topology batches verify per topology, bit-identically to
        the sequential backend."""
        topologies, records_by_name, luts = mixed_oracle_setup
        requests = []
        for name, records in records_by_name.items():
            for i, record in enumerate(records[:3]):
                requests.append(
                    SizingRequest.for_spec(
                        name,
                        record.gain_db * 0.995,
                        record.f3db_hz * 0.98,
                        record.ugf_hz * 0.98,
                        id=f"{name}-{i}",
                        max_iterations=2,
                    )
                )

        def engine(backend):
            model = _MixedOracleModel(topologies.values(), records_by_name, luts)
            eng = SizingEngine(model, cache_size=0, backend=backend)
            for topology in topologies.values():
                eng.adopt_topology(topology)
            return eng

        counting = CountingBackend()
        sequential = engine(ScalarBackend()).size_batch(requests)
        batched = engine(counting).size_batch(requests)
        assert_responses_identical(sequential, batched)
        # Round 1: one bulk verification per topology, spanning all of its
        # surviving candidates (the oracle's decodes all survive Stage III).
        assert counting.calls[:2] == [("5T-OTA", 3), ("CM-OTA", 3)]
        assert {name for name, _ in counting.calls} <= {"5T-OTA", "CM-OTA"}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_topologies_subcommand(self, capsys):
        from repro.service.cli import main

        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        assert "5T-OTA" in out and "CM-OTA" in out and "2S-OTA" in out

    def test_size_jsonl_round_trip(self, tiny_artifacts, tmp_path, capsys):
        from repro.service.cli import main

        bundle = tmp_path / "bundle"
        tiny_artifacts.model.save(bundle)
        record = tiny_artifacts.val_records["5T-OTA"][0]
        request = SizingRequest.for_spec(
            "5T-OTA", record.gain_db, record.f3db_hz, record.ugf_hz,
            id="cli-1", max_iterations=1,
        )
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(
            request.to_json_line() + "\n" + "this is not json\n"
        )
        responses_file = tmp_path / "responses.jsonl"
        exit_code = main([
            "size", "--bundle", str(bundle), "--stats",
            "-i", str(requests_file), "-o", str(responses_file),
        ])
        # --stats names every engine counter, so new ones show up too.
        err = capsys.readouterr().err
        for field in fields(EngineStats):
            assert f"{field.name}=" in err, field.name
        lines = responses_file.read_text().splitlines()
        assert len(lines) == 2
        # Every output line — including error lines — parses with the
        # stable response schema.
        response = SizingResponse.from_json_line(lines[0])
        assert response.request_id == "cli-1"
        assert response.iterations == 1
        bad = SizingResponse.from_json_line(lines[1])
        assert bad.success is False and "bad request line" in bad.error
        assert exit_code == 1  # the malformed line is a tool-level failure

    def test_corners_flag_overrides_requests(self, tiny_artifacts, tmp_path):
        from repro.service.cli import main

        bundle = tmp_path / "bundle"
        tiny_artifacts.model.save(bundle)
        record = tiny_artifacts.val_records["5T-OTA"][0]
        request = SizingRequest.for_spec(
            "5T-OTA", record.gain_db, record.f3db_hz, record.ugf_hz,
            id="cli-c1", max_iterations=1, corners=("tt", "ss"),
        )
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(request.to_json_line() + "\n")
        responses_file = tmp_path / "responses.jsonl"
        exit_code = main([
            "size", "--bundle", str(bundle),
            "-i", str(requests_file), "-o", str(responses_file),
        ])
        assert exit_code == 0
        response = SizingResponse.from_json_line(responses_file.read_text().splitlines()[0])
        assert response.request_id == "cli-c1"
        # Corner-aware verification: whenever a design was measured, the
        # response reports it per corner with the binding worst corner.
        if response.metrics is not None:
            assert set(response.corner_metrics) == {"tt", "ss"}
            assert response.worst_corner in {"tt", "ss"}
        else:
            assert response.corner_metrics is None

    def test_size_infeasible_spec_is_not_a_tool_failure(self, tiny_artifacts, tmp_path):
        """success=false with error=null must exit 0: the service worked."""
        from repro.service.cli import main

        bundle = tmp_path / "bundle"
        tiny_artifacts.model.save(bundle)
        record = tiny_artifacts.val_records["5T-OTA"][0]
        request = SizingRequest.for_spec(
            "5T-OTA", record.gain_db, record.f3db_hz, record.ugf_hz,
            max_iterations=1,
        )
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(request.to_json_line() + "\n")
        responses_file = tmp_path / "responses.jsonl"
        exit_code = main([
            "size", "--bundle", str(bundle),
            "-i", str(requests_file), "-o", str(responses_file),
        ])
        response = SizingResponse.from_json_line(responses_file.read_text().splitlines()[0])
        assert response.error is None
        assert exit_code == 0
