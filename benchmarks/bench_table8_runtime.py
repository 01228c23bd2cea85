"""Table VIII: runtime and success-rate analysis of the sizing flow.

Success is counted within a 1% relative tolerance on each metric: our
substrate's 5T/CM gain spans only ~1.6 dB across the whole design space
(vs the paper's 5 dB), so sub-percent gain prediction errors are
physically uncorrectable by sizing and would mask the flow statistics the
table is about.

Sizes a batch of unseen specifications per topology and reports the
paper's Table VIII columns: one-time training duration, designs optimized
with a single verification simulation vs multiple copilot iterations,
average times and average iteration counts.  Absolute times differ from
the paper (CPU numpy vs GPU PyTorch; MNA substrate vs Spectre); the shape
to check is the high single-simulation success fraction and the small
iteration counts of the remainder.

``test_table8_batched_inference_throughput`` additionally reports the
before/after number of the service redesign: inference-stage throughput
of ``SizingEngine.size_batch`` over a mixed-topology batch vs sizing one
request at a time (a one-request ``size_batch`` per request), with
decoded texts pinned bit-identical between the two.

``test_table8_verification_throughput`` is the Stage IV counterpart (and
the CI smoke of the round-batched verification path): one multi-request
copilot round verified through the engine's batched backend (one
``measure_sweeps`` per topology per round) vs the sequential per-candidate
``ScalarBackend`` of ``tests/scalar_reference.py``, responses pinned
bit-identical.  A second, tt/ss/ff round with transient targets mixes
candidates that meet every AC target at every corner with ones that do
not, so the transient gate runs: the two backends agree bit for bit, and
on the candidates that all pass AC the gated round equals the ungated one
bit for bit and is no slower.  It needs no trained model — a
measured-oracle stand-in drives the rounds — so it stays minutes-free.

``test_table8_corner_throughput`` benchmarks the corner-aware evaluation
refactor (also model-free, also a CI smoke): a population evaluated at
the tt/ss/ff PVT corners through the stacked-corner batched path (the
population x corner block shares one DC Newton batch and one stacked AC
factorization) vs per-corner sequential evaluation on the scalar
reference, outcomes pinned bit-identical per (candidate, corner) pair and
>=2x asserted.

``test_table8_tran_throughput`` benchmarks the batched transient engine
(model-free, CI smoke): a population's step responses integrated through
``run_tran_many`` (candidate-vectorized Newton per time step, one
stacked linear solve per iteration) vs the scalar reference's
per-candidate ``run_tran`` loop, waveforms pinned bit-identical and >=2x
asserted.

Every sequential side comes from ``tests/scalar_reference.py``, the
scalar implementation production no longer runs.
"""

import itertools
import time

import numpy as np

from repro.core import DesignSpec, run_sizing_study
from repro.devices import resolve_corners
from repro.service import SizingEngine, SizingRequest
from repro.solvers import BatchedBackend, EvalBackend, SearchSpace
from repro.spice import PerformanceMetrics
from repro.topologies import DEFAULT_ANALYSES, TRAN_ANALYSES

from conftest import write_bench_json, write_result
from tests import scalar_reference
from tests.scalar_reference import ScalarBackend

#: Unseen designs sized per topology (the paper uses 100).
N_SPECS = 25

#: Mixed-topology batch size of the throughput comparison.
N_BATCH_PER_TOPOLOGY = 11

#: Requests per round in the verification-throughput comparison (a busy
#: serving round; matches bench_table9's population scale).
N_VERIFY_ROUND = 24
VERIFY_REPEATS = 3

#: Requests of the tt/ss/ff transient round (half of them miss an AC
#: target at some corner), and its alternating gated/ungated repeats.
N_PVT_ROUND = 12
PVT_REPEATS = 5
#: How much slower than the ungated round the gated one may measure when
#: every candidate passes AC: timer noise only, the gate itself costs a
#: few comparisons per candidate-corner pair.
GATE_NOISE = 1.25

#: Population and repeats of the corner-throughput comparison.
N_CORNER_POP = 16
CORNER_REPEATS = 3
#: PVT corner axis of the corner-throughput comparison.
CORNER_AXIS = ("tt", "ss", "ff")

#: Population and repeats of the transient-throughput comparison.
N_TRAN_POP = 12
TRAN_REPEATS = 3

PAPER_ROWS = {
    "5T-OTA": "paper: 8.5h train | 95/100 single (37s) | 5/100 multi (111s, ~3 iters)",
    "CM-OTA": "paper: 22h train | 98/100 single (46s) | 2/100 multi (230s, ~5 iters)",
    "2S-OTA": "paper: 11h train | 90/100 single (36s) | 10/100 multi (180s, ~5 iters)",
}


def test_table8_runtime_analysis(benchmark, artifact, topologies):
    lines = [
        "Table VIII -- runtime analysis (ours vs paper)",
        "",
        f"one-time training duration: {artifact.training_seconds:.0f} s "
        f"(all topologies, single model)",
        "",
        f"{'topology':8s} {'#single':>8s} {'avg t [s]':>10s} {'#multi':>7s} "
        f"{'avg t [s]':>10s} {'avg iters':>10s} {'#fail':>6s}",
    ]
    overall_success = 0
    overall_total = 0
    studies = {}
    engine = SizingEngine(artifact.model, cache_size=0)
    for topology in topologies.values():
        engine.adopt_topology(topology)
    for name in topologies:
        specs = [
            DesignSpec(r.gain_db, r.f3db_hz, r.ugf_hz)
            for r in artifact.val_records[name][:N_SPECS]
        ]
        study = run_sizing_study(engine, name, specs, max_iterations=6, rel_tol=0.01)
        studies[name] = study
        lines.append(
            f"{name:8s} {study.single_iteration_successes:>8d} "
            f"{study.average_time(multi_only=False):>10.2f} "
            f"{study.multi_iteration_successes:>7d} "
            f"{study.average_time(multi_only=True):>10.2f} "
            f"{study.average_iterations_multi():>10.1f} {study.failures:>6d}"
        )
        lines.append(f"{'':8s} {PAPER_ROWS[name]}")
        overall_success += study.total - study.failures
        overall_total += study.total
    lines.append("")
    lines.append(
        f"overall success: {overall_success}/{overall_total} "
        f"({100 * overall_success / overall_total:.0f}%)"
    )
    write_result("table8_runtime", lines)

    # Shape: the flow must size the large majority of specs, and most
    # successes must need exactly one verification simulation.
    assert overall_success / overall_total >= 0.4
    singles = sum(s.single_iteration_successes for s in studies.values())
    assert singles >= overall_success * 0.5

    record = artifact.val_records["5T-OTA"][0]
    request = SizingRequest.for_spec("5T-OTA", record.gain_db, record.f3db_hz, record.ugf_hz)
    benchmark.pedantic(lambda: engine.size_batch([request]), rounds=1, iterations=1)


def test_table8_batched_inference_throughput(artifact, topologies):
    """Before/after of the service redesign: one request at a time
    (a one-request ``SizingEngine.size_batch`` per request) vs one
    ``size_batch`` over a mixed-topology batch.

    Both paths run the identical copilot loop (the parity assertion pins
    bit-identical decoded texts per iteration), so the comparison isolates
    the batching of Stage I/II inference.
    """
    # ------------------------------------------------------------------
    # Before: the sequential path, one spec at a time.
    requests = []
    for name in topologies:
        # Unseen specs first; top up from training records when the
        # validation split is small (the tiny smoke profile).
        records = list(artifact.val_records[name]) + list(artifact.train_records[name])
        for record in records[:N_BATCH_PER_TOPOLOGY]:
            requests.append(
                SizingRequest.for_spec(
                    name, record.gain_db, record.f3db_hz, record.ugf_hz, rel_tol=0.01
                )
            )
    assert len(requests) >= 32

    alone = SizingEngine(artifact.model, cache_size=0)
    for topology in topologies.values():
        alone.adopt_topology(topology)
    sequential_responses = [alone.size_batch([request])[0] for request in requests]
    sequential_inference_s = alone.stats.inference_seconds

    # ------------------------------------------------------------------
    # After: one batched engine call (cache off for an honest comparison).
    engine = SizingEngine(artifact.model, cache_size=0)
    for topology in topologies.values():
        engine.adopt_topology(topology)
    responses = engine.size_batch(requests)
    batched_inference_s = engine.stats.inference_seconds

    # Parity: bit-identical decoded parameter texts, iteration by iteration
    # (relies on per-row reduction-order stability of numpy's BLAS across
    # batch shapes; see the note on TestBatchedDecodeParity in
    # tests/test_service.py).
    for sequential, response in zip(sequential_responses, responses, strict=True):
        assert sequential.decoded_texts == response.decoded_texts
        assert sequential.widths == response.widths
        assert sequential.success == response.success

    sequences = engine.stats.inference_sequences
    speedup = sequential_inference_s / batched_inference_s
    lines = [
        "Table VIII addendum -- batched inference throughput (service redesign)",
        "",
        f"mixed-topology batch: {len(requests)} requests "
        f"({N_BATCH_PER_TOPOLOGY} per topology), {sequences} decoded sequences",
        f"one request at a time, inference stage:    {sequential_inference_s:8.2f} s "
        f"({sequences / sequential_inference_s:6.2f} seq/s)",
        f"batched engine.size_batch inference stage:  {batched_inference_s:8.2f} s "
        f"({sequences / batched_inference_s:6.2f} seq/s)",
        f"inference-stage speedup: {speedup:.1f}x",
        "decoded parameter texts: bit-identical to the sequential path",
    ]
    write_result("table8_batched_throughput", lines)

    assert speedup >= 3.0


# ----------------------------------------------------------------------
# Stage IV verification throughput (round-batched vs sequential backend)
# ----------------------------------------------------------------------
class _TimedBackend(EvalBackend):
    """Wraps a backend and accounts its bulk-verification wall time.

    ``gated=False`` drops the specs, so every converged candidate-corner
    pair runs its transient (Stage IV without the transient gate)."""

    def __init__(self, inner, gated=True):
        self.inner = inner
        self.gated = gated
        self.seconds = 0.0
        self.calls = 0
        self.candidates = 0

    def measure_sweeps(self, topology, widths_list, corners, analyses, specs=None):
        start = time.perf_counter()
        sweeps = self.inner.measure_sweeps(
            topology, widths_list, corners, analyses, specs if self.gated else None
        )
        self.seconds += time.perf_counter() - start
        self.calls += 1
        self.candidates += len(widths_list)
        return sweeps


def _measured_oracle(topology, count, rng, spec_of=None):
    """A model-free 'perfect transformer' stand-in: per-spec device
    parameters measured from real random designs of the topology.

    ``spec_of(widths, metrics)`` derives a design's spec from its widths
    and nominal metrics (``None`` skips the design); the default derates
    the nominal metrics by 5%."""
    from repro.core.bundle import SizingModel
    from repro.datagen import SequenceBuilder, SequenceConfig
    from repro.datagen.serialize import ParsedParams
    from repro.spice import ConvergenceError

    space = SearchSpace(topology)
    params_by_spec = {}
    attempts = 0
    while len(params_by_spec) < count and attempts < count * 20:
        attempts += 1
        widths = space.decode(space.random_point(rng))
        try:
            measurement = topology.measure(widths)
        except ConvergenceError:
            continue
        metrics = measurement.metrics
        if not metrics.is_valid():
            continue
        if spec_of is None:
            spec = DesignSpec.from_metrics(metrics, slack=0.05)
        else:
            spec = spec_of(widths, metrics)
            if spec is None:
                continue
        params_by_spec[spec] = {
            group.name: dict(measurement.device_params[group.name])
            for group in topology.groups
        }
    assert len(params_by_spec) >= count // 2, "too few simulatable designs"

    class _Oracle(SizingModel):
        def __init__(self):
            builder = SequenceBuilder(topology, SequenceConfig())
            super().__init__(
                transformer=None, bpe=None, vocab=None,
                sequence_config=builder.config,
                builders={topology.name: builder},
                luts=_oracle_luts(),
            )

        def predict_params(self, topology_name, spec, max_len=None):
            values = {g: dict(p) for g, p in params_by_spec[spec].items()}
            return ParsedParams(values=values, complete=True), f"<oracle:{spec.gain_db:.4f}>"

        def predict_params_many(self, specs_by_topology, max_len=None):
            return {
                name: [self.predict_params(name, spec, max_len) for spec in specs]
                for name, specs in specs_by_topology.items()
            }

    return _Oracle(), list(params_by_spec)


def _pvt_tran_spec_of(topology):
    """``spec_of`` for the tt/ss/ff transient round: alternately a spec
    every corner meets (each metric at its worst corner, derated 5%) and
    the design's nominal metrics, which SS cannot reach -- both with
    transient targets."""
    corners = resolve_corners(CORNER_AXIS)
    meets_every_corner = itertools.cycle((True, False))

    def spec_of(widths, metrics):
        (sweep,) = topology.measure_many([widths], corners=corners, analyses=TRAN_ANALYSES)
        if not sweep.ok:
            return None
        by_corner = sweep.metrics_by_corner()
        if not next(meets_every_corner):
            return DesignSpec.from_metrics(by_corner["tt"])
        worst = PerformanceMetrics(
            *(min(getattr(m, name) for m in by_corner.values())
              for name in ("gain_db", "f3db_hz", "ugf_hz")),
            slew_v_per_s=min(m.slew_v_per_s for m in by_corner.values()),
            settling_time_s=max(m.settling_time_s for m in by_corner.values()),
        )
        return DesignSpec.from_metrics(worst, slack=0.05)

    return spec_of


def _serve_round(model, topology, requests, inner_backend, gated=True):
    """One engine round over ``requests``; returns the responses, the timed
    backend and the engine."""
    backend = _TimedBackend(inner_backend, gated=gated)
    engine = SizingEngine(model, cache_size=0, backend=backend)
    engine.adopt_topology(topology)
    return engine.size_batch(requests), backend, engine


def _wire(response) -> dict:
    """A response's wire payload without its wall time."""
    payload = response.to_json()
    del payload["wall_time_s"]
    return payload


def _oracle_luts():
    from repro.devices import NMOS_65NM, PMOS_65NM
    from repro.lut import build_lut

    return {NMOS_65NM.name: build_lut(NMOS_65NM), PMOS_65NM.name: build_lut(PMOS_65NM)}


def test_table8_verification_throughput(topologies):
    """Round-batched Stage IV vs the sequential verification backend:
    bit-identical responses, >=2x wall-clock on a multi-request round.

    The engine round is driven by a measured-oracle model (no training),
    so the timed difference isolates the verification stage: one
    ``measure_sweeps`` over the round's candidates vs one scalar
    ``measure`` per candidate through the same engine code path.
    """
    topology = topologies["5T-OTA"]
    model, specs = _measured_oracle(topology, N_VERIFY_ROUND, np.random.default_rng(17))
    requests = [
        SizingRequest(topology=topology.name, spec=spec, id=f"verify-{i}", max_iterations=1)
        for i, spec in enumerate(specs)
    ]

    def run(inner_backend):
        responses, backend, _ = _serve_round(model, topology, requests, inner_backend)
        return responses, backend

    # Warm both paths (imports, first-touch allocations).
    run(ScalarBackend())
    run(BatchedBackend())

    scalar_s, batched_s = float("inf"), float("inf")
    for _ in range(VERIFY_REPEATS):
        scalar_responses, scalar_backend = run(ScalarBackend())
        scalar_s = min(scalar_s, scalar_backend.seconds)
        batched_responses, batched_backend = run(BatchedBackend())
        batched_s = min(batched_s, batched_backend.seconds)

    # Parity: bit-identical responses, request by request.
    for reference, response in zip(scalar_responses, batched_responses, strict=True):
        assert reference.request_id == response.request_id
        assert reference.success == response.success
        assert reference.widths == response.widths
        assert reference.iterations == response.iterations
        assert reference.spice_simulations == response.spice_simulations
        assert (reference.metrics is None) == (response.metrics is None)
        if reference.metrics is not None:
            assert np.array_equal(
                reference.metrics.as_array(), response.metrics.as_array(), equal_nan=True
            )

    # The whole round's surviving candidates shared one bulk call.
    assert batched_backend.calls == 1
    assert batched_backend.candidates == scalar_backend.candidates
    assert batched_backend.candidates >= len(requests) // 2

    verified = batched_backend.candidates
    speedup = scalar_s / batched_s
    pvt = _pvt_tran_round(topology)
    lines = [
        "Table VIII addendum -- Stage IV verification throughput (round-batched)",
        "",
        f"round: {len(requests)} copilot requests, {verified} verifiable candidates, "
        f"best of {VERIFY_REPEATS} runs",
        f"sequential per-candidate backend: {scalar_s:8.3f} s "
        f"({verified / scalar_s:7.1f} verifications/s)",
        f"round-batched measure_sweeps path: {batched_s:8.3f} s "
        f"({verified / batched_s:7.1f} verifications/s)",
        f"verification-stage speedup: {speedup:.1f}x",
        "responses: bit-identical to the sequential backend",
        "",
        f"tt/ss/ff transient round: {pvt['requests']} requests, "
        f"{pvt['tran_skipped']} of {pvt['requests'] * len(CORNER_AXIS)} "
        f"candidate-corner transients skipped by the AC gate, best of {PVT_REPEATS} runs",
        f"ungated Stage IV: {pvt['ungated_s']:8.3f} s, gated: {pvt['gated_s']:8.3f} s "
        f"({pvt['gated_speedup']:.2f}x)",
        f"the {pvt['all_pass_requests']} requests whose candidates pass AC: "
        f"ungated {pvt['all_pass_ungated_s']:8.3f} s, gated {pvt['all_pass_gated_s']:8.3f} s",
        "responses: bit-identical to the sequential backend, and gated to "
        "ungated when every candidate passes AC",
    ]
    write_result("table8_verification_throughput", lines)
    write_bench_json(
        "verification",
        {
            "requests": len(requests),
            "verified_candidates": verified,
            "sequential_s": round(scalar_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(speedup, 2),
            "pvt_tran_round": pvt,
        },
    )

    assert speedup >= 2.0


def _pvt_tran_round(topology) -> dict:
    """The tt/ss/ff transient round of the verification smoke.

    Asserts that the scalar and batched backends apply the transient gate
    bit-identically on a round mixing AC-passing and AC-failing
    candidates, and that on the requests whose candidates all pass AC the
    gated round equals the ungated one bit for bit and is no slower than
    :data:`GATE_NOISE` allows.  Returns the round's perf snapshot.
    """
    model, specs = _measured_oracle(
        topology, N_PVT_ROUND, np.random.default_rng(19), spec_of=_pvt_tran_spec_of(topology)
    )
    requests = [
        SizingRequest(
            topology=topology.name, spec=spec, id=f"pvt-{i}", max_iterations=1,
            corners=CORNER_AXIS,
        )
        for i, spec in enumerate(specs)
    ]

    def timed(round_requests):
        """Best gated and ungated Stage IV times over repeats that alternate
        which side runs first, plus each side's last responses and engine."""
        best = {True: float("inf"), False: float("inf")}
        responses = {}
        for repeat in range(PVT_REPEATS):
            for gated in (True, False) if repeat % 2 == 0 else (False, True):
                got, backend, engine = _serve_round(
                    model, topology, round_requests, BatchedBackend(), gated
                )
                best[gated] = min(best[gated], backend.seconds)
                responses[gated] = (got, engine)
        return best, responses

    scalar, _, _ = _serve_round(model, topology, requests, ScalarBackend())
    mixed_s, mixed = timed(requests)
    gated, engine = mixed[True]
    assert [_wire(r) for r in scalar] == [_wire(r) for r in gated]
    skipped = engine.stats.tran_skipped
    assert 0 < skipped < len(requests) * len(CORNER_AXIS)
    assert not any(r.metrics.has_tran for r in gated if not r.success)

    # The requests whose candidates met every AC target at every corner.
    passing = [q for q, r in zip(requests, gated, strict=True) if r.metrics.has_tran]
    assert len(passing) >= 2
    pass_s, pass_rounds = timed(passing)
    (gated_pass, gated_engine), (ungated_pass, _) = pass_rounds[True], pass_rounds[False]
    assert gated_engine.stats.tran_skipped == 0
    assert [_wire(r) for r in gated_pass] == [_wire(r) for r in ungated_pass]
    assert pass_s[True] <= pass_s[False] * GATE_NOISE

    return {
        "requests": len(requests),
        "tran_skipped": skipped,
        "ungated_s": round(mixed_s[False], 4),
        "gated_s": round(mixed_s[True], 4),
        "gated_speedup": round(mixed_s[False] / mixed_s[True], 2),
        "all_pass_requests": len(passing),
        "all_pass_ungated_s": round(pass_s[False], 4),
        "all_pass_gated_s": round(pass_s[True], 4),
    }


# ----------------------------------------------------------------------
# Corner-aware evaluation throughput (stacked corners vs per-corner seq)
# ----------------------------------------------------------------------
def test_table8_corner_throughput(topologies):
    """Stacked-corner batched evaluation vs per-corner sequential:
    bit-identical per-(candidate, corner) outcomes, >=2x wall-clock.

    Model-free: the population is random simulatable designs; the batched
    path evaluates the whole population x corner block through one
    ``measure_sweeps`` call (the corner axis stacks into the
    same batched DC Newton and complex AC factorization as the population
    axis), the sequential reference measures one (candidate, corner) pair
    per SPICE run.
    """
    from repro.spice import ConvergenceError

    topology = topologies["5T-OTA"]
    rng = np.random.default_rng(23)
    space = SearchSpace(topology)
    population = []
    attempts = 0
    while len(population) < N_CORNER_POP and attempts < N_CORNER_POP * 20:
        attempts += 1
        widths = space.decode(space.random_point(rng))
        try:
            topology.measure(widths)
        except ConvergenceError:
            continue
        population.append(widths)
    assert len(population) >= N_CORNER_POP // 2, "too few simulatable designs"

    corners = resolve_corners(CORNER_AXIS)
    scalar_backend, batched_backend = ScalarBackend(), BatchedBackend()
    # Warm both paths (imports, first-touch allocations).
    scalar_backend.measure_sweeps(topology, population[:2], corners, DEFAULT_ANALYSES)
    batched_backend.measure_sweeps(topology, population[:2], corners, DEFAULT_ANALYSES)

    scalar_s = batched_s = float("inf")
    for _ in range(CORNER_REPEATS):
        start = time.perf_counter()
        scalar_sweeps = scalar_backend.measure_sweeps(
            topology, population, corners, DEFAULT_ANALYSES
        )
        scalar_s = min(scalar_s, time.perf_counter() - start)
        start = time.perf_counter()
        batched_sweeps = batched_backend.measure_sweeps(
            topology, population, corners, DEFAULT_ANALYSES
        )
        batched_s = min(batched_s, time.perf_counter() - start)

    # Parity: bit-identical outcomes per (candidate, corner) pair.
    for reference, sweep in zip(scalar_sweeps, batched_sweeps, strict=True):
        assert reference.corners == sweep.corners
        for ref_outcome, outcome in zip(reference.outcomes, sweep.outcomes, strict=True):
            assert ref_outcome.ok == outcome.ok
            if not ref_outcome.ok:
                continue
            assert np.array_equal(
                ref_outcome.result.metrics.as_array(),
                outcome.result.metrics.as_array(),
                equal_nan=True,
            )
            assert (
                ref_outcome.result.dc.node_voltages
                == outcome.result.dc.node_voltages
            )

    pairs = len(population) * len(CORNER_AXIS)
    speedup = scalar_s / batched_s
    lines = [
        "Table VIII addendum -- corner-aware evaluation throughput",
        "",
        f"population: {len(population)} candidates x {len(CORNER_AXIS)} corners "
        f"({', '.join(CORNER_AXIS)}) = {pairs} evaluations, "
        f"best of {CORNER_REPEATS} runs",
        f"per-corner sequential evaluation:  {scalar_s:8.3f} s "
        f"({pairs / scalar_s:7.1f} evals/s)",
        f"stacked-corner batched evaluation: {batched_s:8.3f} s "
        f"({pairs / batched_s:7.1f} evals/s)",
        f"corner-evaluation speedup: {speedup:.1f}x",
        "outcomes: bit-identical per (candidate, corner) pair",
    ]
    write_result("table8_corner_throughput", lines)
    write_bench_json(
        "corner",
        {
            "candidates": len(population),
            "corners": list(CORNER_AXIS),
            "evaluations": pairs,
            "sequential_s": round(scalar_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(speedup, 2),
        },
    )

    assert speedup >= 2.0


# ----------------------------------------------------------------------
# Transient (step-response) integration throughput (batched vs sequential)
# ----------------------------------------------------------------------
def test_table8_tran_throughput(topologies):
    """Batched ``run_tran_many`` vs the scalar reference's per-candidate
    ``run_tran`` loop: bit-identical waveforms, >=2x wall-clock on a
    candidate population.

    Model-free: the population is random simulatable designs whose DC
    operating points are solved once up front, so the timed difference
    isolates the transient integration stage -- the candidate-vectorized
    Newton per time step with one stacked linear solve per iteration vs
    one full scalar integration per candidate.
    """
    from repro.spice import ConvergenceError, run_tran_many, solve_dc

    topology = topologies["5T-OTA"]
    rng = np.random.default_rng(31)
    space = SearchSpace(topology)
    solutions = []
    attempts = 0
    while len(solutions) < N_TRAN_POP and attempts < N_TRAN_POP * 20:
        attempts += 1
        widths = space.decode(space.random_point(rng))
        try:
            circuit = topology.build(widths)
            solutions.append(solve_dc(circuit, initial_guess=topology.initial_guess()))
        except ConvergenceError:
            continue
    assert len(solutions) >= N_TRAN_POP // 2, "too few simulatable designs"

    kwargs = dict(
        t_stop=topology.tran_t_stop,
        n_steps=topology.tran_steps,
        method=topology.tran_method,
        step_amplitude=topology.tran_step_v,
    )

    # Warm both paths (imports, first-touch allocations).
    scalar_reference.run_tran(solutions[0], **kwargs)
    run_tran_many(solutions[:2], **kwargs)

    sequential_s = batched_s = float("inf")
    for _ in range(TRAN_REPEATS):
        start = time.perf_counter()
        sequential = [scalar_reference.run_tran(solution, **kwargs) for solution in solutions]
        sequential_s = min(sequential_s, time.perf_counter() - start)
        start = time.perf_counter()
        batched = run_tran_many(solutions, **kwargs)
        batched_s = min(batched_s, time.perf_counter() - start)

    # Parity: bit-identical waveforms, candidate by candidate.
    for reference, result in zip(sequential, batched, strict=True):
        assert np.array_equal(reference.times, result.times)
        assert np.array_equal(reference.waveforms, result.waveforms)
        assert reference.newton_iterations == result.newton_iterations

    count = len(solutions)
    speedup = sequential_s / batched_s
    lines = [
        "Table VIII addendum -- transient integration throughput",
        "",
        f"population: {count} candidates x {topology.tran_steps} time steps "
        f"({topology.tran_method}, t_stop={topology.tran_t_stop:.0e} s), "
        f"best of {TRAN_REPEATS} runs",
        f"per-candidate sequential integration: {sequential_s:8.3f} s "
        f"({count / sequential_s:7.1f} candidates/s)",
        f"batched run_tran_many integration:    {batched_s:8.3f} s "
        f"({count / batched_s:7.1f} candidates/s)",
        f"transient-integration speedup: {speedup:.1f}x",
        "waveforms: bit-identical to the sequential loop",
    ]
    write_result("table8_tran_throughput", lines)
    write_bench_json(
        "tran",
        {
            "candidates": count,
            "time_steps": topology.tran_steps,
            "sequential_s": round(sequential_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(speedup, 2),
        },
    )

    assert speedup >= 2.0
