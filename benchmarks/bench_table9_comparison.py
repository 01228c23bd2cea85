"""Table IX: comparison with prior SPICE-in-the-loop sizing approaches.

The paper's Table IX is qualitative; this bench makes it quantitative on
our substrate.  Simulated annealing, PSO and differential evolution run
as registered ``repro.solvers`` with SPICE in the loop (on the batched
evaluation backend); the trained transformer flow runs where it is
served, as one one-request ``SizingEngine.size_batch`` call per spec.
The comparison columns are SPICE-call counts, runtime and success.

``test_table9_population_throughput`` is the backend's own before/after
number: one population evaluated through the sequential scalar reference
(``tests/scalar_reference.py``) vs the batched ``measure_sweeps`` path
(vectorized AC, amortized DC Newton), with a bit-identical-metrics parity
assertion.  It needs no trained model, so it doubles as the CI smoke of
the unified evaluation path.
"""

import time

import numpy as np

from repro import solvers
from repro.core import DesignSpec
from repro.service import SizingEngine, SizingRequest
from repro.solvers import BatchedBackend, SearchSpace
from repro.topologies import DEFAULT_ANALYSES

from conftest import write_result
from tests.scalar_reference import ScalarBackend

N_SPECS = 3
MAX_EVALS = 400

#: Candidates per population in the throughput comparison (a typical
#: PSO/DE generation is 12; use a couple of generations' worth).
POPULATION = 24
THROUGHPUT_REPEATS = 3


def test_table9_comparison(benchmark, artifact, topologies):
    topology = topologies["5T-OTA"]
    records = artifact.val_records["5T-OTA"][5 : 5 + N_SPECS]
    specs = [DesignSpec(r.gain_db, r.f3db_hz, r.ugf_hz) for r in records]

    rows = []
    for name in ("sa", "pso", "de"):
        solver = solvers.create(name, topology)
        calls, times, wins = [], [], 0
        for k, spec in enumerate(specs):
            rng = np.random.default_rng(100 + k)
            result = solver.solve(spec, budget=MAX_EVALS, rng=rng)
            calls.append(result.spice_calls)
            times.append(result.wall_time_s)
            wins += int(result.success)
        rows.append((name.upper(), float(np.mean(calls)), float(np.mean(times)), wins))

    engine = SizingEngine(artifact.model, cache_size=0)
    engine.adopt_topology(topology)
    flow_calls, flow_times, flow_wins = [], [], 0
    for spec in specs:
        (response,) = engine.size_batch([SizingRequest(topology=topology.name, spec=spec)])
        assert response.error is None, response.error
        flow_calls.append(response.spice_simulations)
        flow_times.append(response.wall_time_s)
        flow_wins += int(response.success)
    rows.append(("Transformer+LUT", float(np.mean(flow_calls)), float(np.mean(flow_times)), flow_wins))

    lines = [
        "Table IX -- comparison with SPICE-in-the-loop sizing (quantified)",
        "",
        f"{N_SPECS} unseen 5T-OTA specs; baselines capped at {MAX_EVALS} SPICE calls;",
        "baselines through repro.solvers, the flow through SizingEngine.size_batch",
        "",
        f"{'method':16s} {'avg SPICE calls':>16s} {'avg time [s]':>13s} {'success':>8s}",
    ]
    for name, mean_calls, mean_time, wins in rows:
        lines.append(f"{name:16s} {mean_calls:>16.1f} {mean_time:>13.2f} {wins:>5d}/{N_SPECS}")
    lines.append("")
    lines.append("paper (qualitative): SA/PSO/DE very high SPICE dependency & slow;")
    lines.append("ours: transformer+LUT very low dependency (>90% one simulation), very fast.")
    write_result("table9_comparison", lines)

    transformer_row = rows[-1]
    baseline_calls = [r[1] for r in rows[:-1]]
    # Shape: the flow needs far fewer SPICE calls than every baseline.
    assert transformer_row[1] * 3 <= min(baseline_calls)
    assert transformer_row[3] >= 1

    rng = np.random.default_rng(0)
    sa = solvers.create("sa", topology)
    benchmark.pedantic(
        lambda: sa.solve(specs[0], budget=40, rng=rng),
        rounds=1,
        iterations=1,
    )


def test_table9_population_throughput(topologies):
    """Scalar vs batched population evaluation: parity + >=2x throughput.

    The claim of the evaluation-backend redesign: submitting a whole
    PSO/DE-style population to ``measure_sweeps`` (stacked complex MNA over
    population x frequency grid, DC Newton assembly amortized across
    candidates) is at least twice as fast as the scalar reference's
    sequential per-candidate ``measure`` loop, while every metric stays
    bit-identical.
    """
    topology = topologies["5T-OTA"]
    space = SearchSpace(topology)
    rng = np.random.default_rng(42)
    population = [space.decode(space.random_point(rng)) for _ in range(POPULATION)]

    scalar, batched = ScalarBackend(), BatchedBackend()
    # Warm both paths (imports, first-touch allocations).
    scalar.measure_sweeps(topology, population[:2], (), DEFAULT_ANALYSES)
    batched.measure_sweeps(topology, population[:2], (), DEFAULT_ANALYSES)

    scalar_s, batched_s = float("inf"), float("inf")
    for _ in range(THROUGHPUT_REPEATS):
        start = time.perf_counter()
        scalar_sweeps = scalar.measure_sweeps(topology, population, (), DEFAULT_ANALYSES)
        scalar_s = min(scalar_s, time.perf_counter() - start)
        start = time.perf_counter()
        batched_sweeps = batched.measure_sweeps(topology, population, (), DEFAULT_ANALYSES)
        batched_s = min(batched_s, time.perf_counter() - start)

    # Parity: bit-identical metrics, candidate by candidate.
    for reference_sweep, sweep in zip(scalar_sweeps, batched_sweeps, strict=True):
        (reference,), (outcome,) = reference_sweep.outcomes, sweep.outcomes
        assert reference.ok == outcome.ok
        if reference.ok:
            assert np.array_equal(
                reference.result.metrics.as_array(),
                outcome.result.metrics.as_array(),
                equal_nan=True,
            )

    speedup = scalar_s / batched_s
    lines = [
        "Table IX addendum -- population evaluation throughput (solver redesign)",
        "",
        f"population: {POPULATION} candidate 5T-OTA designs, best of {THROUGHPUT_REPEATS} runs",
        f"sequential measure() loop:   {scalar_s:8.3f} s "
        f"({POPULATION / scalar_s:7.1f} candidates/s)",
        f"batched measure_sweeps() path: {batched_s:8.3f} s "
        f"({POPULATION / batched_s:7.1f} candidates/s)",
        f"population-evaluation speedup: {speedup:.1f}x",
        "metrics: bit-identical to the sequential path",
    ]
    write_result("table9_population_throughput", lines)

    assert speedup >= 2.0
