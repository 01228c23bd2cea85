"""Workload definitions and seeded request generation.

Every workload fixes each request's *work*, not its timing: the spec
multiset of a run depends only on the workload and the run length, and the
seed decides the order, the batch each request lands in and (for the
open-loop workload) the arrival times.  Request ids name the
multiset element, not its position, so a registry solver -- seeded from its
request id -- does the same search under every seed.  Success, first-pass
and answered shares therefore repeat exactly across seeds and runs, and only
time metrics carry noise.

Specs come from the committed spec pool (``data/pool.json``): the measured
metrics of designs that ``prep.py`` sampled and simulated with
``generate_dataset`` and ``DesignFilter(icmr_margin=0.05)``, from a sampling
seed the bundle's training never used -- in distribution but unseen.  The
pool is deduplicated under the result cache's 3-significant-digit
quantization, so only the planned repeats can hit the cache.  Each pool list
is used from the front for copilot requests and from the back for solver
requests; its last entry is reserved for warm-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
BUNDLE_DIR = DATA / "bundle"
POOL_FILE = DATA / "pool.json"
MANIFEST_FILE = DATA / "manifest.json"
CACHE = HERE / ".cache"

PAPER_TOPOLOGIES = ("5T-OTA", "CM-OTA", "2S-OTA")
SOLVER_TOPOLOGIES = ("5T-OTA", "CM-OTA", "2S-OTA", "FC-OTA", "TELE-OTA")
SOLVER_METHODS = ("pso", "sa", "de")
PVT_CORNERS = ["tt", "ss", "ff"]
#: ``rel_tol`` of the registry-solver requests: they chase the spec derated by it.
SOLVER_REL_TOL = 0.05
AC_FIELDS = ("gain_db", "f3db_hz", "ugf_hz")
#: Every run makes this many passes, each in a fresh host or server process
#: (so also three set-up samples).  The closed loops repeat the same batches
#: in every pass and time each batch by its median over the passes; the open
#: loop sends a different slice of its requests in each pass, on its own
#: schedule.
PASSES = 3
TRAN_FIELDS = ("slew_v_per_s", "settling_time_s", "overshoot_frac")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``closed``: fixed batches through ``SizingEngine.size_batch`` in one
    #: thread; ``open``: seeded Poisson arrivals against ``repro serve``.
    kind: str
    #: Requests per second the run length is converted at.  For the closed
    #: loops it only sizes the fixed work (two copilot-sweep batches and three
    #: verify-pvt batches per pass at the benchmark's 24 s); for the open
    #: loop it is the arrival rate.
    rate: float
    batch_size: int = 1
    #: Per-request latency limit of ``slo_attainment`` (ms).
    slo_ms: float = 0.0
    #: SPICE-evaluation budget of the workload's registry-solver requests.
    solver_budget: int = 0
    #: Copilot rounds per request (``None``: the service default of 6).
    max_iterations: int | None = None

    def n_requests(self, seconds: float) -> int:
        """Requests of a ``seconds``-long run.

        The closed loops repeat the same batches in every pass; the open
        loop sends a different slice of its requests in each pass.
        """
        pass_seconds = seconds / PASSES
        if self.kind == "open":
            return PASSES * max(10, round(pass_seconds * self.rate))
        batches = max(1, round(pass_seconds * self.rate / self.batch_size))
        return batches * self.batch_size


WORKLOADS = {
    # Closed-loop copilot batches: a closed-loop caller waits for the whole
    # batch, so every request's latency is its batch's wall time.  The
    # closed-loop limits are about twice the median batch wall measured when
    # the benchmark was defined on 2 cores (4.9 s here, 3.3 s for verify-pvt).
    "copilot-sweep": Workload(
        "copilot-sweep", "closed", rate=8.0, batch_size=32, slo_ms=10_000.0
    ),
    "verify-pvt": Workload(
        "verify-pvt", "closed", rate=6.0, batch_size=16, slo_ms=6_500.0, solver_budget=24
    ),
    # Interactive callers take one copilot round: one decode, one
    # verification.  The arrival rate is under 40% of the batch-of-one
    # capacity measured when the benchmark was defined: requests of this mix
    # sent one at a time took 0.139 s on average on 2 cores (7.2 requests/s).
    # The latency limit sits near the copilot p95 measured at definition
    # (p50 about 120 ms, p90 about 270 ms).  Closer to the median, the
    # machine's speed swings moved ``slo_attainment`` between runs by as much
    # as a slower decode does; here a batch-of-one decode twice as slow
    # still drops it from 0.95 to 0.64.
    "serve-interactive": Workload(
        "serve-interactive", "open", rate=2.8, slo_ms=350.0, solver_budget=16,
        max_iterations=1,
    ),
}


# ----------------------------------------------------------------------
# Spec pool and request construction (plain wire-format dicts)
# ----------------------------------------------------------------------
def load_pool() -> dict[str, list[dict]]:
    return json.loads(POOL_FILE.read_text())["designs"]


def _pick(entries: list[dict], index: int, *, back: bool = False) -> dict:
    """The ``index``-th spec from the front (copilot) or back (solvers)."""
    usable = entries[:-1]  # the last entry is the warm-up spec
    if index >= len(usable):
        raise SystemExit(f"spec pool too small: need {index + 1} specs, have {len(usable)}")
    return usable[-1 - index] if back else usable[index]


def _request(rid: str, topology: str, entry: dict, *, tran: bool = False, **extra) -> dict:
    payload = {"id": rid, "topology": topology}
    payload.update({name: entry[name] for name in AC_FIELDS})
    if tran:
        payload.update({name: entry[name] for name in TRAN_FIELDS if name in entry})
    payload.update({name: value for name, value in extra.items() if value is not None})
    return payload


def _solver(rid: str, topology: str, entry: dict, method: str, workload: Workload) -> dict:
    return _request(
        rid, topology, entry, method=method, budget=workload.solver_budget,
        rel_tol=SOLVER_REL_TOL,
    )


def _copilot_sweep(pool, workload: Workload, n: int, rng: random.Random) -> list[dict]:
    # Topology slots rotate 5T/CM/2S inside every batch of 32, and one in
    # eight requests repeats an earlier spec exactly: in the first batch as
    # an in-batch duplicate (coalesced), in later batches as a repeat of a
    # spec from the batch before (a cache hit).  Which specs repeat is fixed,
    # so every seed computes the same work; the seed deals the other specs
    # to batches and orders each batch.
    slots = [PAPER_TOPOLOGIES[i % 3] for i in range(workload.batch_size)]
    repeats = {"5T-OTA": 2, "CM-OTA": 1, "2S-OTA": 1}
    n_batches = n // workload.batch_size
    batches: list[list[dict]] = [[] for _ in range(n_batches)]
    for topology in PAPER_TOPOLOGIES:
        per_batch, r = slots.count(topology), repeats[topology]
        tag = topology.split("-")[0]
        stream = [
            _request(f"cs-{tag}-{i:04d}", topology, _pick(pool[topology], i))
            for i in range(n_batches * (per_batch - r))
        ]
        # Group b: originals in batch max(b - 1, 0), copies in batch b.
        for b in range(n_batches):
            group = stream[b * r:(b + 1) * r]
            batches[max(b - 1, 0)].extend(group)
            batches[b].extend(dict(q, id=q["id"] + "-again") for q in group)
        free = stream[n_batches * r:]
        rng.shuffle(free)
        for batch in batches:
            need = sum(1 for q in batch if q["topology"] == topology)
            batch.extend(free[: per_batch - need])
            free = free[per_batch - need:]
    for batch in batches:
        rng.shuffle(batch)
    return [request for batch in batches for request in batch]


def _verify_pvt(pool, workload: Workload, n: int, rng: random.Random) -> list[dict]:
    # Three in four: 5T copilot requests verified worst-case at tt/ss/ff with
    # transient targets.  One in four: registry solvers with a fixed budget,
    # cycling pso/sa/de over every registered topology.  The solvers keep
    # their batches under every seed (their costs differ most); the seed
    # deals the copilot specs and orders each batch.
    per_batch = workload.batch_size // 4
    n_batches = n // workload.batch_size
    copilot = [
        _request(f"vp-5T-{i:04d}", "5T-OTA", _pick(pool["5T-OTA"], i), tran=True, corners=PVT_CORNERS)
        for i in range(n - per_batch * n_batches)
    ]
    rng.shuffle(copilot)
    requests = []
    for b in range(n_batches):
        batch = copilot[b * (workload.batch_size - per_batch):][: workload.batch_size - per_batch]
        for k in range(b * per_batch, (b + 1) * per_batch):
            topology = SOLVER_TOPOLOGIES[k % len(SOLVER_TOPOLOGIES)]
            method = SOLVER_METHODS[k % len(SOLVER_METHODS)]
            entry = _pick(pool[topology], k // len(SOLVER_TOPOLOGIES), back=True)
            batch.append(_solver(f"vp-{method}-{k:04d}", topology, entry, method, workload))
        rng.shuffle(batch)
        requests.extend(batch)
    return requests


def _serve_interactive(pool, workload: Workload, n: int, rng: random.Random) -> list[dict]:
    # Nine in ten: nominal copilot requests over 5T/CM/2S; one in ten:
    # small-budget PSO.  Every spec is distinct and no deadline is set.
    n_pso = n // 10
    requests = []
    for k in range(n - n_pso):
        topology = PAPER_TOPOLOGIES[k % 3]
        entry = _pick(pool[topology], k // 3)
        requests.append(
            _request(f"si-{k:04d}", topology, entry, max_iterations=workload.max_iterations)
        )
    for k in range(n_pso):
        topology = PAPER_TOPOLOGIES[k % 3]
        entry = _pick(pool[topology], k // 3, back=True)
        requests.append(_solver(f"si-pso-{k:04d}", topology, entry, "pso", workload))
    rng.shuffle(requests)
    return requests


_BUILDERS = {
    "copilot-sweep": _copilot_sweep,
    "verify-pvt": _verify_pvt,
    "serve-interactive": _serve_interactive,
}


def warmup_requests(pool, workload: Workload) -> list[dict]:
    """A small batch touching every topology, corner set, analysis and
    solver the workload uses, on the reserved warm-up specs (one round)."""
    if workload.name == "copilot-sweep":
        return [
            _request(f"warmup-{t}", t, pool[t][-1], max_iterations=1) for t in PAPER_TOPOLOGIES
        ]
    if workload.name == "verify-pvt":
        warm = [
            _request("warmup-5T-pvt", "5T-OTA", pool["5T-OTA"][-1], tran=True,
                     corners=PVT_CORNERS, max_iterations=1)
        ]
        for k, topology in enumerate(SOLVER_TOPOLOGIES):
            method = SOLVER_METHODS[k % len(SOLVER_METHODS)]
            warm.append(
                _request(f"warmup-{method}-{topology}", topology, pool[topology][-1],
                         method=method, budget=4, rel_tol=SOLVER_REL_TOL)
            )
        return warm
    return [
        _request(f"warmup-{t}", t, pool[t][-1], max_iterations=1) for t in PAPER_TOPOLOGIES
    ] + [
        _request("warmup-pso", "5T-OTA", pool["5T-OTA"][-1], method="pso", budget=4,
                 rel_tol=SOLVER_REL_TOL)
    ]


def arrival_offsets(n: int, rate: float, rng: random.Random) -> list[float]:
    """Seeded Poisson arrivals of one pass, offsets (s) from its start.

    A Poisson process at ``rate`` conditioned on its first and last arrival
    spanning exactly ``(n - 1) / rate``: the arrivals between are sorted
    uniform draws.  Fixing the span keeps a pass's length, and so the
    throughput it can show, the same under every seed.
    """
    span = (n - 1) / rate
    return [0.0, *sorted(rng.uniform(0.0, span) for _ in range(n - 2)), span]


def _lines(requests: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in requests)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def request_files(workload: Workload, seconds: float, seed: int, key: str) -> dict[str, Path]:
    """Write (or verify) the request files of one (workload, run length, seed).

    Returns the paths of the ``requests``, ``warmup`` and ``meta`` files.
    The meta file records the prep key and both files' hashes; a file that
    no longer matches them is refused, not silently reused.
    """
    n = workload.n_requests(seconds)
    stem = f"{workload.name}-n{n}-seed{seed}"
    directory = CACHE / key[:16]
    paths = {
        "requests": directory / f"{stem}.jsonl",
        "warmup": directory / f"{stem}.warmup.jsonl",
        "meta": directory / f"{stem}.meta.json",
    }
    pool = load_pool()
    rng = random.Random(f"{workload.name}:{seed}")
    requests = _BUILDERS[workload.name](pool, workload, n, rng)
    warmup = warmup_requests(pool, workload)
    # Only the planned repeats may share a cache key (3 significant digits).
    keys = [
        (r["topology"], r.get("method"), *(float(f"{r[f]:.3g}") for f in AC_FIELDS))
        for r in requests if not r["id"].endswith("-again")
    ]
    if len(set(keys)) != len(keys):
        raise SystemExit(f"{workload.name}: the spec pool is too small for {n} distinct requests")
    meta = {
        "key": key,
        "workload": workload.name,
        "seed": seed,
        "n": n,
        "requests_sha256": _sha256(_lines(requests)),
        "warmup_sha256": _sha256(_lines(warmup)),
        "offsets": (
            [t for _ in range(PASSES) for t in arrival_offsets(n // PASSES, workload.rate, rng)]
            if workload.kind == "open" else None
        ),
    }
    if paths["meta"].exists():
        stored = json.loads(paths["meta"].read_text())
        if stored != meta or any(
            not paths[name].exists() or _sha256(paths[name].read_text()) != meta[f"{name}_sha256"]
            for name in ("requests", "warmup")
        ):
            raise SystemExit(f"request cache {paths['meta']} does not match its key; delete {directory}")
        return paths
    directory.mkdir(parents=True, exist_ok=True)
    paths["requests"].write_text(_lines(requests))
    paths["warmup"].write_text(_lines(warmup))
    paths["meta"].write_text(json.dumps(meta, sort_keys=True))
    return paths


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
