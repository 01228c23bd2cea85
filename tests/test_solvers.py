"""Tests of the unified solver API and the batched evaluation backend.

The parity classes are the contract of the API redesign: the bulk
``measure_many``/``measure_sweeps`` path (vectorized AC, amortized DC
Newton) must produce
*bit-identical* measurements to the sequential scalar reference
(``tests/scalar_reference.py``), with per-candidate failure isolation;
the SPICE-in-the-loop baselines (SA / PSO / DE, the Table IX baselines)
must be dispatchable through ``repro.solvers``, and every sizing method
— the copilot and those baselines — through the service layers built on
it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro import solvers
from repro.core import DesignSpec
from repro.core.bundle import SizingModel
from repro.datagen import SequenceBuilder, SequenceConfig
from repro.datagen.serialize import ParsedParams
from repro.devices import NMOS_65NM, NOMINAL_CORNER, PMOS_65NM
from repro.service import SizingEngine, SizingRequest
from repro.solvers import (
    PENALTY,
    BatchedBackend,
    EvalBackend,
    SearchObjective,
    SearchSpace,
    Solver,
    SolveResult,
)
from repro.spice import ConvergenceError
from repro.topologies import (
    DEFAULT_ANALYSES,
    CornerSweep,
    FiveTransistorOTA,
    MeasureOutcome,
)

from tests import scalar_reference
from tests.scalar_reference import ScalarBackend
from tests.conftest import (
    GOOD_WIDTHS,
    PoisonedFiveT,
    assert_measurements_identical,
    make_population,
)

#: Width value marking the candidate PoisonedFiveT refuses to converge on.
POISON_WIDTH = 3.333e-6


@pytest.fixture(scope="module")
def easy_spec(five_t_module):
    metrics = five_t_module.measure(GOOD_WIDTHS["5T-OTA"]).metrics
    return DesignSpec(metrics.gain_db * 0.9, metrics.f3db_hz * 0.5, metrics.ugf_hz * 0.5)


@pytest.fixture(scope="module")
def five_t_module():
    return FiveTransistorOTA()


# ----------------------------------------------------------------------
# Solver registry
# ----------------------------------------------------------------------
class TestSolverRegistry:
    def test_stock_solvers_registered(self):
        registered = set(solvers.available_solvers())
        assert {"sa", "pso", "de"} <= registered
        # The copilot runs in the sizing engine, not in the registry.
        assert "copilot" not in registered

    def test_register_create_unregister_round_trip(self, five_t_module, easy_spec):
        class NominalSolver(Solver):
            """Evaluates only the nominal design — enough to round-trip."""

            name = "nominal"

            def solve(self, spec, budget=None, rng=None):
                import time

                objective = self._objective(spec)
                start = time.perf_counter()
                point = np.full(objective.space.dimension, 0.5)
                objective.evaluate_many(point[None, :])
                return self._finish(objective, start, iterations=1)

        solvers.register(NominalSolver)
        try:
            assert "nominal" in solvers.available_solvers()
            assert solvers.get("nominal") is NominalSolver
            solver = solvers.create("nominal", five_t_module)
            result = solver.solve(easy_spec)
            assert isinstance(result, SolveResult)
            assert result.solver == "nominal"
            assert result.spice_calls == 1
        finally:
            solvers.unregister("nominal")
        assert "nominal" not in solvers.available_solvers()

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            solvers.register(solvers.ParticleSwarmSolver)

    def test_replace_allows_shadowing(self):
        solvers.register(solvers.ParticleSwarmSolver, replace=True)
        assert solvers.get("pso") is solvers.ParticleSwarmSolver

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="registered:"):
            solvers.get("annealing-but-wrong")

    def test_factory_without_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            solvers.register(lambda topology, **kwargs: None)


#: The layers above the solvers: the engine, the HTTP layer, the shard pool
#: and the trained model bundle.
ABOVE_SOLVERS = ("repro.service", "repro.serve", "repro.shard", "repro.core.bundle")


def test_solvers_import_no_layer_above_them():
    """``repro.solvers`` is a layer under the service: none of its modules
    imports the engine, the HTTP layer, the shard pool or the model bundle,
    not even inside a function."""
    package = Path(solvers.__file__).parent
    paths = sorted(package.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # Level 1 is ``repro.solvers`` itself, level 2 ``repro``.
                anchor = ["repro", "solvers"][: 3 - node.level] if node.level else []
                base = ".".join([*anchor, *([node.module] if node.module else [])])
                # ``from .. import service`` names the module in the alias.
                modules = [base, *(f"{base}.{alias.name}" for alias in node.names)]
            else:
                continue
            for module in modules:
                assert not any(
                    module == above or module.startswith(f"{above}.") for above in ABOVE_SOLVERS
                ), (path.name, node.lineno, module)


# ----------------------------------------------------------------------
# measure_many parity with the sequential measure path
# ----------------------------------------------------------------------
class TestMeasureManyParity:
    def _assert_identical(self, sequential, outcome):
        assert outcome.ok
        assert_measurements_identical(sequential, outcome.result)

    def test_bit_identical_to_sequential(self, five_t_module):
        population = make_population(five_t_module, 8)
        sequential = [scalar_reference.measure(five_t_module, w) for w in population]
        outcomes = five_t_module.measure_many(population)
        assert len(outcomes) == len(population)
        for ref, outcome in zip(sequential, outcomes, strict=True):
            self._assert_identical(ref, outcome)

    def test_non_convergent_candidate_is_isolated(self):
        topology = PoisonedFiveT(POISON_WIDTH)
        population = make_population(topology, 4, seed=5)
        poisoned = dict(population[1])
        poisoned["M1"] = POISON_WIDTH
        batch = [population[0], poisoned, population[2], population[3]]

        with pytest.raises(ConvergenceError):
            topology.measure(poisoned)  # the sequential path gives up...

        outcomes = topology.measure_many(batch)
        assert not outcomes[1].ok  # ...the bulk path isolates the failure
        assert outcomes[1].error is not None
        for index in (0, 2, 3):
            self._assert_identical(scalar_reference.measure(topology, batch[index]), outcomes[index])

    def test_unbuildable_candidate_is_isolated(self, five_t_module):
        population = make_population(five_t_module, 2)
        bad = dict(population[0])
        bad.pop("M5")  # missing group -> build-time KeyError
        outcomes = five_t_module.measure_many([bad, population[1]])
        assert not outcomes[0].ok and "M5" in outcomes[0].error
        self._assert_identical(scalar_reference.measure(five_t_module, population[1]), outcomes[1])

    def test_empty_population(self, five_t_module):
        assert five_t_module.measure_many([]) == []

    def test_backends_agree(self, five_t_module):
        population = make_population(five_t_module, 3, seed=2)
        scalar = ScalarBackend().measure_sweeps(five_t_module, population, (), DEFAULT_ANALYSES)
        batched = BatchedBackend().measure_sweeps(five_t_module, population, (), DEFAULT_ANALYSES)
        for s_sweep, b_sweep in zip(scalar, batched, strict=True):
            assert s_sweep.corners == b_sweep.corners == (NOMINAL_CORNER,)
            (s,), (b,) = s_sweep.outcomes, b_sweep.outcomes
            assert s.ok and b.ok
            assert np.array_equal(
                s.result.metrics.as_array(), b.result.metrics.as_array(), equal_nan=True
            )


# ----------------------------------------------------------------------
# SearchObjective history bookkeeping
# ----------------------------------------------------------------------
def _nominal_sweeps(outcomes):
    """Wrap nominal outcomes as the one-corner ``tt`` sweeps a backend returns."""
    return [
        CornerSweep(widths=outcome.widths, corners=(NOMINAL_CORNER,), outcomes=(outcome,))
        for outcome in outcomes
    ]


class _FailingBackend(EvalBackend):
    """Every candidate fails to simulate — an all-penalized generation."""

    def measure_sweeps(self, topology, widths_list, corners, analyses, specs=None):
        return _nominal_sweeps(
            MeasureOutcome(widths=dict(widths), error="synthetic failure")
            for widths in widths_list
        )


class TestSearchObjectiveHistory:
    def test_all_penalized_first_generation_records_finite_history(self, five_t_module, easy_spec):
        """Before the first simulatable candidate, ``best_value`` is inf;
        recorded history must clamp to PENALTY (finite, JSON-safe) instead
        of leaking Infinity into serialization and convergence plots."""
        import json

        objective = SearchObjective(five_t_module, easy_spec, backend=_FailingBackend())
        points = [np.full(objective.space.dimension, 0.5) for _ in range(4)]
        values = objective.evaluate_many(points)
        assert list(values) == [PENALTY] * 4
        assert objective.history == [PENALTY] * 4
        assert np.all(np.isfinite(objective.history))
        # JSON round trip: would raise/produce Infinity before the fix.
        assert json.loads(json.dumps(objective.history)) == objective.history

    def test_history_recovers_after_first_simulatable_candidate(self, five_t_module, easy_spec):
        objective = SearchObjective(five_t_module, easy_spec)
        failing = SearchObjective(five_t_module, easy_spec, backend=_FailingBackend())
        point = np.full(objective.space.dimension, 0.5)
        failing.history.extend([PENALTY, PENALTY])  # simulate a dead generation
        value = float(objective.evaluate_many(point[None, :])[0])
        failing.backend = objective.backend
        failing.evaluate_many(point[None, :])
        assert failing.history == [PENALTY, PENALTY, min(value, PENALTY)]
        # Best-so-far stays monotonically non-increasing and finite.
        history = np.array(failing.history, dtype=float)
        assert np.all(np.isfinite(history))
        assert np.all(np.diff(history) <= 0.0 + 1e-12)

    def test_simulatable_candidate_worse_than_penalty_recorded_truthfully(self, five_t_module):
        """A candidate that simulates but scores worse than PENALTY (e.g. a
        deeply negative gain) must be recorded as-is — never replaced by a
        clamped value no candidate ever achieved."""
        from types import SimpleNamespace

        from repro.spice import PerformanceMetrics

        class _TerribleBackend(EvalBackend):
            def measure_sweeps(self, topology, widths_list, corners, analyses, specs=None):
                metrics = PerformanceMetrics(gain_db=-140.0, f3db_hz=1.0, ugf_hz=1.0)
                return _nominal_sweeps(
                    MeasureOutcome(widths=dict(w), result=SimpleNamespace(metrics=metrics))
                    for w in widths_list
                )

        spec = DesignSpec(10.0, 1e6, 1e8)
        objective = SearchObjective(five_t_module, spec, backend=_TerribleBackend())
        point = np.full(objective.space.dimension, 0.5)
        value = float(objective.evaluate_many(point[None, :])[0])
        assert value > PENALTY  # the scenario this test is about
        assert objective.history == [value]
        assert objective.best_value == value
        # ...and once a penalized candidate scores better (PENALTY < value),
        # the best *seen* is the penalty, monotone from there on.
        objective.backend = _FailingBackend()
        objective.evaluate_many(point[None, :])
        objective.backend = _TerribleBackend()
        objective.evaluate_many(point[None, :])
        assert objective.history == [value, PENALTY, PENALTY]

    def test_solver_history_json_safe_when_nothing_simulates(self, five_t_module, easy_spec):
        """A whole solver run over a dead backend yields a finite,
        JSON-round-trippable history."""
        import json

        solver = solvers.create("pso", five_t_module, backend=_FailingBackend())
        result = solver.solve(easy_spec, budget=24, rng=np.random.default_rng(1))
        assert not result.success
        assert len(result.history) == result.spice_calls
        assert result.history == [PENALTY] * result.spice_calls
        assert json.loads(json.dumps(result.history)) == result.history


# ----------------------------------------------------------------------
# Search space and objective of the SPICE-in-the-loop solvers
# ----------------------------------------------------------------------
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
        objective = SearchObjective(five_t_module, easy_spec)
        space = objective.space
        rng = np.random.default_rng(0)
        for _ in range(4):
            objective.evaluate_one(space.random_point(rng))
        assert objective.spice_calls == 4

    def test_zero_cost_when_satisfied(self, five_t_module, easy_spec):
        objective = SearchObjective(five_t_module, easy_spec)
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


# ----------------------------------------------------------------------
# Search solvers through the unified API
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["sa", "pso", "de"])
class TestSearchSolvers:
    def test_finds_easy_spec_with_unified_accounting(self, name, five_t_module, easy_spec):
        solver = solvers.get(name)(five_t_module)
        result = solver.solve(easy_spec, budget=250, rng=np.random.default_rng(5))
        assert result.solver == name
        assert result.success, f"{name} best={result.best_value}"
        assert result.best_widths is not None
        assert result.best_metrics is not None
        assert easy_spec.satisfied(result.best_metrics)
        assert 1 <= result.spice_calls <= 250

    def test_history_is_best_so_far_per_spice_call(self, name, five_t_module, easy_spec):
        solver = solvers.create(name, five_t_module)
        result = solver.solve(easy_spec, budget=100, rng=np.random.default_rng(7))
        assert len(result.history) == result.spice_calls
        history = np.array(result.history)
        assert np.all(np.isfinite(history))
        assert np.all(np.diff(history) <= 1e-12)
        assert history[-1] == result.best_value

    def test_budget_is_a_hard_cap(self, name, five_t_module):
        hard = DesignSpec(gain_db=80.0, f3db_hz=1e10, ugf_hz=1e12)
        solver = solvers.create(name, five_t_module)
        result = solver.solve(hard, budget=30, rng=np.random.default_rng(6))
        assert not result.success
        assert result.spice_calls <= 30

    def test_scalar_backend_supported(self, name, five_t_module, easy_spec):
        solver = solvers.create(name, five_t_module, backend=ScalarBackend())
        result = solver.solve(easy_spec, budget=60, rng=np.random.default_rng(5))
        assert result.spice_calls <= 60


# ----------------------------------------------------------------------
# Seed determinism: same seed -> identical SolveResult, for every solver
# ----------------------------------------------------------------------
def _assert_solve_results_identical(first, second):
    """Everything but wall time must reproduce bit-identically."""
    assert first.solver == second.solver
    assert first.success == second.success
    assert first.spice_calls == second.spice_calls
    assert first.iterations == second.iterations
    assert first.best_value == second.best_value
    assert first.best_widths == second.best_widths
    assert first.history == second.history
    assert (first.best_metrics is None) == (second.best_metrics is None)
    if first.best_metrics is not None:
        assert np.array_equal(
            first.best_metrics.as_array(), second.best_metrics.as_array(), equal_nan=True
        )
        assert np.array_equal(
            first.best_metrics.tran_as_array(),
            second.best_metrics.tran_as_array(),
            equal_nan=True,
        )


@pytest.fixture(scope="module")
def tran_spec(five_t_module):
    """An achievable spec with transient targets derived from a measured
    step response (loose enough that random search can reach it)."""
    metrics = five_t_module.measure(
        GOOD_WIDTHS["5T-OTA"], analyses=("dc", "ac", "tran")
    ).metrics
    return DesignSpec(
        metrics.gain_db * 0.9,
        metrics.f3db_hz * 0.5,
        metrics.ugf_hz * 0.5,
        slew_v_per_s=metrics.slew_v_per_s * 0.5,
        settling_time_s=metrics.settling_time_s * 2.0,
        overshoot_frac=max(metrics.overshoot_frac * 2.0, 0.5),
    )


class TestSeedDeterminism:
    """Every registered solver must reproduce an identical ``SolveResult``
    (best design, history, accounting) from the same rng seed, and the
    copilot an identical response -- with and without transient specs in
    the objective."""

    @pytest.mark.parametrize("name", ["sa", "pso", "de"])
    @pytest.mark.parametrize("with_tran", [False, True])
    def test_search_solvers_reproduce(
        self, name, with_tran, five_t_module, easy_spec, tran_spec
    ):
        spec = tran_spec if with_tran else easy_spec
        results = []
        for _ in range(2):
            solver = solvers.create(name, five_t_module)
            results.append(solver.solve(spec, budget=24, rng=np.random.default_rng(42)))
        _assert_solve_results_identical(*results)
        if with_tran:
            # The objective really ran the transient leg: the best metrics
            # carry measured (finite) transient fields.
            best = results[0].best_metrics
            if best is not None:
                assert best.has_tran

    @pytest.mark.parametrize("with_tran", [False, True])
    def test_copilot_reproduces(
        self, with_tran, five_t_module, oneshot_model, achievable_spec, tran_spec
    ):
        """Two fresh engines answer the same copilot request alike, apart
        from the wall time."""
        spec = tran_spec if with_tran else achievable_spec
        payloads = []
        for _ in range(2):
            response = _size_copilot(oneshot_model, five_t_module, spec, id="same", budget=2)
            payload = response.to_json()
            payload.pop("wall_time_s")
            payloads.append(payload)
        assert payloads[0] == payloads[1]


# ----------------------------------------------------------------------
# Copilot requests, one per size_batch (perfect-prediction stand-in model)
# ----------------------------------------------------------------------
def _size_copilot(model, topology, spec, **kwargs):
    """One copilot request through a fresh, cacheless engine."""
    engine = SizingEngine(model, cache_size=0)
    engine.adopt_topology(topology)
    (response,) = engine.size_batch([SizingRequest(topology=topology.name, spec=spec, **kwargs)])
    return response


class _OneShotModel(SizingModel):
    """Always predicts the device parameters of one known-good design."""

    def __init__(self, topology, values, luts):
        builder = SequenceBuilder(topology, SequenceConfig())
        super().__init__(
            transformer=None,
            bpe=None,
            vocab=None,
            sequence_config=builder.config,
            builders={topology.name: builder},
            luts=luts,
        )
        self._values = values

    def predict_params(self, topology_name, spec, max_len=None):
        values = {group: dict(params) for group, params in self._values.items()}
        return ParsedParams(values=values, complete=True), "<oneshot>"

    def predict_params_many(self, specs_by_topology, max_len=None):
        return {
            name: [self.predict_params(name, spec, max_len) for spec in specs]
            for name, specs in specs_by_topology.items()
        }


@pytest.fixture(scope="module")
def oneshot_model(five_t_module, nmos_lut, pmos_lut):
    measurement = five_t_module.measure(GOOD_WIDTHS["5T-OTA"])
    values = {
        group.name: measurement.device_params[group.name]
        for group in five_t_module.groups
    }
    luts = {NMOS_65NM.name: nmos_lut, PMOS_65NM.name: pmos_lut}
    return _OneShotModel(five_t_module, values, luts)


@pytest.fixture(scope="module")
def achievable_spec(five_t_module):
    """Targets the one-shot model's own design reaches after LUT round-trip."""
    metrics = five_t_module.measure(GOOD_WIDTHS["5T-OTA"]).metrics
    return DesignSpec(metrics.gain_db * 0.98, metrics.f3db_hz * 0.9, metrics.ugf_hz * 0.9)


class TestCopilotRequests:
    def test_unified_call_and_accounting(self, five_t_module, oneshot_model, achievable_spec):
        response = _size_copilot(oneshot_model, five_t_module, achievable_spec)
        assert response.method == "copilot"
        assert response.error is None
        assert response.success
        assert response.spice_simulations == 1
        assert response.iterations == 1
        assert [trace.satisfied for trace in response.trace] == [True]
        assert sum(achievable_spec.miss_fractions(response.metrics).values()) == 0.0
        assert achievable_spec.satisfied(response.metrics)

    def test_budget_caps_iterations(self, five_t_module, oneshot_model):
        impossible = DesignSpec(gain_db=90.0, f3db_hz=1e10, ugf_hz=1e12)
        response = _size_copilot(oneshot_model, five_t_module, impossible, budget=3)
        assert not response.success
        assert response.iterations == 3
        assert response.spice_simulations <= 3
        # The best iterate is reported, and each simulated round is traced.
        assert response.metrics is not None
        assert np.isfinite(sum(impossible.miss_fractions(response.metrics).values()))
        assert len(response.trace) == 3
        simulated = [trace for trace in response.trace if trace.metrics is not None]
        assert len(simulated) == response.spice_simulations


# ----------------------------------------------------------------------
# Engine dispatch by request method
# ----------------------------------------------------------------------
class TestEngineMethodDispatch:
    def _engine(self, oneshot_model, five_t_module, **kwargs):
        engine = SizingEngine(oneshot_model, **kwargs)
        engine.adopt_topology(five_t_module)
        return engine

    def _request(self, spec, **kwargs):
        return SizingRequest(topology="5T-OTA", spec=spec, **kwargs)

    def test_mixed_methods_in_one_batch(self, five_t_module, oneshot_model, achievable_spec):
        engine = self._engine(oneshot_model, five_t_module, cache_size=0)
        requests = [
            self._request(achievable_spec, id="cop"),
            self._request(achievable_spec, id="swarm", method="pso", budget=60),
            self._request(achievable_spec, id="anneal", method="sa", budget=60),
        ]
        responses = engine.size_batch(requests)
        assert [r.request_id for r in responses] == ["cop", "swarm", "anneal"]
        assert [r.method for r in responses] == ["copilot", "pso", "sa"]
        for response in responses:
            assert response.error is None
            assert response.success
            assert achievable_spec.satisfied(response.metrics)
        assert responses[1].spice_simulations <= 60
        assert responses[2].spice_simulations <= 60

    def test_solver_responses_reproducible_per_request_id(
        self, five_t_module, oneshot_model, achievable_spec
    ):
        engine = self._engine(oneshot_model, five_t_module, cache_size=0)
        first = engine.size_batch([self._request(achievable_spec, id="r", method="de", budget=60)])
        second = engine.size_batch([self._request(achievable_spec, id="r", method="de", budget=60)])
        assert first[0].widths == second[0].widths
        assert first[0].spice_simulations == second[0].spice_simulations

    def test_solver_requests_bypass_cache(self, five_t_module, oneshot_model, achievable_spec):
        engine = self._engine(oneshot_model, five_t_module, cache_size=16)
        request = self._request(achievable_spec, method="sa", budget=40)
        engine.size(request)
        engine.size(self._request(achievable_spec, method="sa", budget=40, id="again"))
        assert engine.stats.cache_hits == 0
        assert engine.stats.solver_requests == 2

    def test_unknown_method_yields_error_response(
        self, five_t_module, oneshot_model, achievable_spec
    ):
        engine = self._engine(oneshot_model, five_t_module, cache_size=0)
        response = engine.size(self._request(achievable_spec, method="gradient-descent"))
        assert not response.success
        assert "gradient-descent" in response.error

    def test_json_round_trip_with_method_and_budget(self, achievable_spec):
        request = self._request(achievable_spec, method="pso", budget=123)
        restored = SizingRequest.from_json_line(request.to_json_line())
        assert restored == request
        assert restored.method == "pso"
        assert restored.budget == 123


# ----------------------------------------------------------------------
# CLI `size --method` dispatch for every registered solver
# ----------------------------------------------------------------------
_MICRO_CONFIG_KWARGS = dict(
    designs_per_topology=(("5T-OTA", 18),),
    epochs=1,
    d_model=32,
    n_heads=4,
    d_ff=48,
    dropout=0.0,
    num_merges=120,
    encoder_max_paths=1,
    learning_rate=1e-3,
    batch_size=8,
    dtype="float32",
    seed=3,
)


@pytest.fixture(scope="module")
def micro_bundle(tmp_path_factory):
    """A real (minutes-of-nothing-scale) trained bundle saved to disk."""
    from repro.core import PipelineConfig, train_sizing_model

    artifacts = train_sizing_model(PipelineConfig(**_MICRO_CONFIG_KWARGS))
    bundle = tmp_path_factory.mktemp("bundle") / "micro"
    artifacts.model.save(bundle)
    return bundle


class TestCLIMethodDispatch:
    #: SPICE budgets keeping each method's run small in CI.
    BUDGETS = {"sa": 40, "pso": 40, "de": 40, "copilot": 2}

    def test_solvers_subcommand_lists_registry(self, capsys):
        from repro.service.cli import main

        assert main(["solvers"]) == 0
        out = capsys.readouterr().out.split()
        assert {"sa", "pso", "de", "copilot"} <= set(out)

    @pytest.mark.parametrize("method", ["sa", "pso", "de", "copilot"])
    def test_size_dispatches_every_registered_solver(
        self, method, micro_bundle, easy_spec, tmp_path
    ):
        from repro.service.cli import main
        from repro.service.requests import SizingResponse

        request = SizingRequest(topology="5T-OTA", spec=easy_spec, id=f"cli-{method}")
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(request.to_json_line() + "\n")
        responses_file = tmp_path / "responses.jsonl"
        budget = self.BUDGETS[method]
        exit_code = main([
            "size", "--bundle", str(micro_bundle),
            "--method", method, "--budget", str(budget),
            "-i", str(requests_file), "-o", str(responses_file),
        ])
        assert exit_code == 0
        response = SizingResponse.from_json_line(responses_file.read_text().splitlines()[0])
        assert response.request_id == f"cli-{method}"
        assert response.method == method
        assert response.error is None
        assert response.spice_simulations <= budget
        if method != "copilot":  # the micro model may miss; the search won't
            assert response.success

    def test_budget_over_work_bound_is_a_bad_line(self, micro_bundle, easy_spec, tmp_path):
        from repro.service.cli import main
        from repro.service.requests import SizingResponse

        request = SizingRequest(topology="5T-OTA", spec=easy_spec, id="greedy")
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(request.to_json_line() + "\n")
        responses_file = tmp_path / "responses.jsonl"
        exit_code = main([
            "size", "--bundle", str(micro_bundle), "--budget", "61",
            "-i", str(requests_file), "-o", str(responses_file),
        ])
        assert exit_code == 1
        (line,) = responses_file.read_text().splitlines()
        response = SizingResponse.from_json_line(line)
        assert response.error.startswith("bad request line: ")
        assert "must be between 0 and 60" in response.error
        # The line parsed, so its failure is addressed to it.
        assert response.request_id == "greedy"

    def test_unknown_method_flag_exits_2(self, micro_bundle, tmp_path):
        from repro.service.cli import main

        exit_code = main([
            "size", "--bundle", str(micro_bundle), "--method", "bogus",
            "-i", str(tmp_path / "none.jsonl"), "-o", "-",
        ])
        assert exit_code == 2
