"""Sharded engine throughput: multiprocess pool vs single-process engine.

The sharding tentpole's claim: the engine's remaining wall-clock is
pure-Python work serialized by one GIL (inference bookkeeping, netlist
assembly, the copilot loop around the vectorized solves), so a pool of
worker *processes* — each running the same ``SizingEngine`` over its
own copy of the model — should scale a mixed-topology workload with cores
while answering bit-identically.  This bench measures exactly that
(model-free, CI smoke):

* **before** — one ``SizingEngine.size_batch`` call over the whole
  mixed-topology, corner-aware workload in a single process;
* **after** — the same workload through ``ShardedEngine`` with
  ``WORKERS`` spawn workers (hash-of-spec routing), each worker sizing
  its slice with the identical engine code.

Responses are asserted bit-identical between the two paths (modulo
``wall_time_s``); the measured numbers land in ``BENCH_shard.json``.

The >= 2x speedup floor is enforced only when the machine actually has
>= ``MIN_CORES_FOR_FLOOR`` usable cores: worker processes cannot beat a
single process on a one-core container no matter how correct the
sharding is, so on starved boxes the JSON snapshot records the honest
number (plus the core count) and the floor assertion is skipped instead
of lying with a rigged workload.

The worker factory (and everything reachable from its arguments) is
module-level plain data: spawn re-imports this module in each fresh
interpreter and rebuilds the oracle there, which is also why the oracle
takes ``params_by_spec`` dicts instead of closing over local state.
"""

import os
import time
from functools import partial

import numpy as np

from repro.core import DesignSpec
from repro.core.bundle import SizingModel
from repro.datagen import SequenceBuilder, SequenceConfig
from repro.datagen.serialize import ParsedParams
from repro.service import SizingEngine, SizingRequest
from repro.shard import ShardedEngine
from repro.solvers import SearchSpace
from repro.topologies import topology_by_name

from conftest import write_bench_json, write_result

#: Specs per topology in the mixed workload (3 topologies).
N_PER_TOPOLOGY = 8
#: Pool size; the acceptance criterion's ``--workers >= 4``.
WORKERS = 4
#: Best-of repeats for both paths.
REPEATS = 2
#: PVT corner axis: six corners (the three presets plus supply-skew
#: variants) multiply the Stage IV work per request without growing the
#: pickled request/response volume — the realistic serving regime the
#: pool exists for, and enough per-slice compute to amortize IPC.
CORNER_AXIS = (
    "tt",
    "ss",
    "ff",
    {"name": "tt-lo", "process": "tt", "vdd_scale": 0.95},
    {"name": "tt-hi", "process": "tt", "vdd_scale": 1.05},
    {"name": "ss-vnom", "process": "ss", "vdd_scale": 1.0},
)

SPEEDUP_FLOOR = 2.0
#: Below this many usable cores the floor cannot physically hold.
MIN_CORES_FOR_FLOOR = 4


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _collect_params(topology, count, rng):
    """Measured device parameters per spec: plain, picklable data."""
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
        if not measurement.metrics.is_valid():
            continue
        spec = DesignSpec.from_metrics(measurement.metrics, slack=0.05)
        params_by_spec[spec] = {
            group.name: dict(measurement.device_params[group.name])
            for group in topology.groups
        }
    assert len(params_by_spec) >= count // 2, "too few simulatable designs"
    return params_by_spec


class _ShardOracle(SizingModel):
    """Model-free 'perfect transformer' over plain per-spec parameters.

    Unlike the closure-based oracle in ``bench_table8_runtime``, this one
    is constructed from a picklable dict so spawn workers can rebuild it.
    """

    def __init__(self, params_by_topology):
        from repro.devices import NMOS_65NM, PMOS_65NM
        from repro.lut import build_lut

        builders = {
            name: SequenceBuilder(topology_by_name(name), SequenceConfig())
            for name in params_by_topology
        }
        super().__init__(
            transformer=None, bpe=None, vocab=None,
            sequence_config=next(iter(builders.values())).config,
            builders=builders,
            luts={NMOS_65NM.name: build_lut(NMOS_65NM), PMOS_65NM.name: build_lut(PMOS_65NM)},
        )
        self._params = params_by_topology

    def predict_params(self, topology_name, spec, max_len=None):
        values = {
            group: dict(params)
            for group, params in self._params[topology_name][spec].items()
        }
        return ParsedParams(values=values, complete=True), f"<oracle:{spec.gain_db:.4f}>"

    def predict_params_many(self, specs_by_topology, max_len=None):
        return {
            name: [self.predict_params(name, spec, max_len) for spec in specs]
            for name, specs in specs_by_topology.items()
        }


def _oracle_engine(params_by_topology):
    """Worker factory (module-level: spawn pickles it by qualified name)."""
    return SizingEngine(_ShardOracle(params_by_topology), cache_size=0)


def _comparable(response):
    payload = response.to_json()
    payload.pop("wall_time_s")
    payload.pop("cached", None)
    return payload


def test_shard_throughput(topologies):
    rng = np.random.default_rng(47)
    params_by_topology = {}
    requests = []
    for name, topology in topologies.items():
        params = _collect_params(topology, N_PER_TOPOLOGY, rng)
        params_by_topology[name] = params
        requests.extend(
            SizingRequest(
                topology=name, spec=spec, id=f"{name}-{i}",
                max_iterations=1, corners=CORNER_AXIS,
            )
            for i, spec in enumerate(params)
        )
    assert len(requests) >= 12

    # ------------------------------------------------------------------
    # Before: the whole workload through one single-process engine.
    single = _oracle_engine(params_by_topology)
    single.size_batch(requests)  # warm (lazy topology adoption, first-touch)
    single_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference = single.size_batch(requests)
        single_s = min(single_s, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # After: the same workload across WORKERS spawn processes.
    pool = ShardedEngine(partial(_oracle_engine, params_by_topology), workers=WORKERS)
    try:
        pool.size_batch(requests)  # warm every worker's slice
        sharded_s = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            responses = pool.size_batch(requests)
            sharded_s = min(sharded_s, time.perf_counter() - start)
        health = pool.health()
        busy_workers = sum(
            1 for worker in pool.workers_payload() if worker["requests"] > 0
        )
    finally:
        pool.close()

    # Parity: bit-identical responses, request by request.
    assert health["status"] == "ok"
    for expected, got in zip(reference, responses, strict=True):
        assert _comparable(expected) == _comparable(got), got.request_id
    # The hash routing actually spread the workload.
    assert busy_workers >= 2

    cores = _usable_cores()
    speedup = single_s / sharded_s
    enforce_floor = cores >= MIN_CORES_FOR_FLOOR
    lines = [
        "Sharded engine throughput -- multiprocess pool vs single process",
        "",
        f"workload: {len(requests)} requests ({N_PER_TOPOLOGY} specs x "
        f"{len(params_by_topology)} topologies x {len(CORNER_AXIS)} corners), "
        f"best of {REPEATS} runs",
        f"single-process size_batch: {single_s:8.3f} s "
        f"({len(requests) / single_s:6.1f} req/s)",
        f"sharded pool ({WORKERS} workers): {sharded_s:8.3f} s "
        f"({len(requests) / sharded_s:6.1f} req/s)",
        f"speedup: {speedup:.2f}x on {cores} usable core(s), "
        f"{busy_workers}/{WORKERS} workers busy",
        "responses: bit-identical to the single-process engine",
    ]
    if not enforce_floor:
        lines.append(
            f"speedup floor skipped: {cores} core(s) < {MIN_CORES_FOR_FLOOR} "
            "(process pools cannot beat one process on a starved container)"
        )
    write_result("shard_throughput", lines)
    write_bench_json(
        "shard",
        {
            "requests": len(requests),
            "topologies": sorted(params_by_topology),
            "corners": list(CORNER_AXIS),
            "workers": WORKERS,
            "busy_workers": busy_workers,
            "usable_cores": cores,
            "repeats": REPEATS,
            "single_process_s": round(single_s, 4),
            "sharded_s": round(sharded_s, 4),
            "speedup": round(speedup, 2),
            "parity": "bit-identical",
            "speedup_floor": SPEEDUP_FLOOR,
            "speedup_floor_enforced": enforce_floor,
        },
    )

    if enforce_floor:
        assert speedup >= SPEEDUP_FLOOR, (
            f"sharded pool below the {SPEEDUP_FLOOR}x floor on {cores} cores: "
            f"{speedup:.2f}x (single {single_s:.3f}s, sharded {sharded_s:.3f}s)"
        )
