"""The batched sizing engine (Stages I-IV over many requests at once).

One :class:`SizingEngine` owns one trained :class:`~repro.core.SizingModel`
and serves any number of topologies through the registry; a copilot
request must name one the model was trained on.  The request
loop is *round based*: every copilot iteration, all still-active requests
are grouped by topology (serialization and parsing are per-topology) and
translated in one greedy decode whose batch spans the whole round — one
model serves every topology, so the fusion crosses topology boundaries
(Stage I/II).  Each request then runs width estimation (Stage III), and
the round's verifiable candidates are verified together: one
``measure_sweeps`` call per topology through the engine's pluggable
:class:`~repro.solvers.EvalBackend` (Stage IV), so the verification
SPICE simulations of a round share one stacked complex MNA factorization
instead of running one at a time.  Throughput therefore scales with the
batch size instead of with Python loop iterations, while per-request
semantics — margin allocation, retry nudges, iteration accounting,
per-candidate ``ConvergenceError`` isolation — stay identical to serving
each request alone (the parity tests pin bit-identical decoded texts,
widths and traces).  Each request's corner axis and analyses are
resolved once, in :class:`SizingRequest`, and reach the backend as they
are, together with the spec each candidate is judged against: a
candidate that misses an AC target at some corner has already failed,
so its transient is not run (``EngineStats.tran_skipped`` counts them).
Every round ends once, with one :class:`IterationTrace` whose
``outcome`` names how it ended (``unparseable``, ``lut_rejected``,
``nonconverged``, ``miss`` or ``success``); that trace is the request's
one record.  A request's loop ends by building its one
:class:`SizingResponse` from it, which also carries the trace in-process
(``trace``, never on the wire), and :class:`EngineStats` counts the
rounds of each batch by outcome.

A request whose margin allocation hands back the spec its round asked
for has reached a fixed point: every later round would decode, size and
verify the same design and end with the same record (one spec decodes
to one text, Stage III is a function of the decode, and a candidate's
Stage IV result does not depend on its batch).  So the request finishes
there, its trace filled to the budget with that record: the response is
bit for bit the one every-round serving builds, and the request leaves
every later decode, Stage III and Stage IV.  :class:`EngineStats`
counts the filled rounds as ``rounds_replayed``, apart from the rounds
the engine ran.

A bounded LRU cache keyed by (topology, quantized spec) absorbs repeated
and near-duplicate requests without touching the transformer at all.

The engine is the one place the copilot runs.  Requests may also name
any registered solver (:func:`available_methods` lists them all): those
are dispatched to the unified solver API -- running SPICE-in-the-loop on
the batched evaluation backend -- and come back in the same response
schema, so one service endpoint serves copilot and baseline sizing alike.

Requests with a ``corners`` axis are verified **worst-case across PVT
corners**: each round's candidates are measured at every corner (the
population x corner block stacks into the same batched solves), margin
allocation chases the binding worst corner, and success requires every
corner to meet the spec.  The corner axis is part of the result-cache
key and of the in-batch coalescing key, so corner sets never cross-talk.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass, fields
from collections.abc import Sequence
from typing import Any

import numpy as np

from ..core.bundle import SizingModel
from ..core.margin import tighten_spec
from ..core.specs import DesignSpec
from ..datagen.serialize import ParsedParams
from ..lut import DeviceParams, estimate_width
from ..solvers import BatchedBackend, EvalBackend, available_solvers, solver_factory
from ..topologies import CornerSweep, OTATopology, topology_by_name
from .cache import ResultCache
from .requests import IterationTrace, SizingRequest, SizingResponse

__all__ = ["SizingEngine", "EngineStats", "available_methods"]

#: Retry nudge applied when an iteration produced nothing verifiable
#: (unparseable decode, inconsistent widths, or a non-converging design).
_NUDGE = {"gain_db": 1.01, "f3db_hz": 1.02, "ugf_hz": 1.02}

#: Stage III clamps every estimated width into this range (m).
_WIDTH_BOUNDS = (0.1e-6, 200e-6)

#: Stage III rejects an inference whose Algorithm-1 width candidates
#: disagree by more than this relative spread: wildly inconsistent
#: predicted parameters cannot describe any physical device, so
#: re-inferring beats verifying a garbage design.
_MAX_CANDIDATE_SPREAD = 5.0


def available_methods() -> tuple[str, ...]:
    """Every ``SizingRequest.method`` the engine serves: the copilot,
    then the registered solvers."""
    return ("copilot", *available_solvers())


@dataclass
class EngineStats:
    """Serving counters, cumulative over the engine's lifetime.

    Safe under concurrent ``size_batch`` callers: writers go through
    :meth:`add` and readers through :meth:`snapshot` / :meth:`as_dict`,
    all serialized on one internal lock — the serving layer's ``/stats``
    endpoint reads while the dispatcher (or several library threads)
    writes, and a torn read must never show e.g. ``cache_hits`` ahead of
    ``requests``.  Field access stays plain for single-threaded callers
    and the existing tests.

    The counters count the work the engine did: a round filled in at a
    margin-allocation fixed point is in its response's ``iterations`` and
    ``spice_simulations``, but here only in ``rounds_replayed``.
    """

    requests: int = 0
    cache_hits: int = 0
    #: In-batch exact duplicates coalesced onto a leader's computation
    #: (no cache lookup involved, so not counted under ``cache_hits``).
    coalesced: int = 0
    batches: int = 0
    inference_calls: int = 0
    inference_sequences: int = 0
    inference_seconds: float = 0.0
    spice_simulations: int = 0
    #: Candidate-corner transients Stage IV skipped because the candidate
    #: already missed an AC target at some corner (see
    #: :meth:`~repro.solvers.EvalBackend.measure_sweeps`).
    tran_skipped: int = 0
    solver_requests: int = 0
    #: Copilot rounds the engine ran, by outcome
    #: (:data:`~repro.service.requests.ROUND_OUTCOMES`), counted from the
    #: traces of the requests a batch ran: a cache hit or a coalesced
    #: duplicate carries another request's trace and adds none.  Each ran
    #: round decoded one row, so these five sum to ``inference_sequences``.
    rounds_unparseable: int = 0
    rounds_lut_rejected: int = 0
    rounds_nonconverged: int = 0
    rounds_miss: int = 0
    rounds_success: int = 0
    #: Rounds filled in, not run, after margin allocation reached a fixed
    #: point (see :meth:`_ActiveRequest.end_round`).
    rounds_replayed: int = 0

    def __post_init__(self) -> None:
        # Not a dataclass field: equality/repr compare counters only.
        self._lock = threading.Lock()

    def add(self, **deltas: float) -> None:
        """Atomically increment the named counters."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> EngineStats:
        """A consistent point-in-time copy (its own independent lock)."""
        with self._lock:
            return EngineStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def as_dict(self) -> dict[str, Any]:
        """Atomic JSON-ready snapshot, field-declaration order."""
        copy = self.snapshot()
        return {f.name: getattr(copy, f.name) for f in fields(copy)}


class _ActiveRequest:
    """One copilot request in flight: ``trace``, the record of its rounds,
    is its only per-round state; ``current`` is the next round's spec, and
    ``replayed`` counts the trace's last rounds that were filled in, not
    run (see :meth:`end_round`)."""

    __slots__ = (
        "request", "topology", "original", "derated", "current", "trace", "replayed",
        "start", "response",
    )

    def __init__(self, request: SizingRequest, topology: OTATopology):
        self.request = request
        self.topology = topology
        self.original = request.spec
        #: The spec Stage IV's verdict applies (``original`` within
        #: ``rel_tol``), handed to the backend as the transient gate.
        self.derated = request.spec.derated(request.rel_tol)
        self.current = request.spec
        self.trace: list[IterationTrace] = []
        self.replayed = 0
        self.start = time.perf_counter()
        self.response: SizingResponse | None = None
        if not request.iteration_budget:
            self.finish()  # a zero-round budget fails at once, without inference

    def end_round(self, record: IterationTrace) -> None:
        """The one way a round ends: append its record, then finish on
        success or a spent budget, or else pick the next round's spec --
        a nudge when nothing was measured, margin allocation otherwise.

        Margin allocation may hand back the very spec the round asked for
        (its tightening is capped at ``max_factor`` of the original, and a
        transient-only miss tightens nothing).  That is a fixed point:
        the same spec decodes to the same text, Stage III is a function of
        the decode and a candidate's Stage IV result does not depend on its
        batch, so every later round would repeat this record.  The rest of
        the budget is filled with it and the request finishes, with the
        response every-round serving would have built."""
        self.trace.append(record)
        if record.outcome == "success" or len(self.trace) >= self.request.iteration_budget:
            self.finish()
        elif record.metrics is None:
            self.current = record.requested_spec.scaled(_NUDGE)
        else:
            self.current = tighten_spec(record.requested_spec, self.original, record.metrics)
            if self.current == record.requested_spec:
                self.replayed = self.request.iteration_budget - len(self.trace)
                self.trace.extend([record] * self.replayed)
                self.finish()

    def finish(self) -> None:
        """End the copilot loop with the request's one response, read from
        the trace.  It reports the success round's design, else the first
        measured round with the smallest shortfall against the original
        spec (none when no round's shortfall is finite)."""
        trace = tuple(self.trace)
        success = bool(trace) and trace[-1].outcome == "success"
        reported = trace[-1] if success else None
        if not success:
            best = float("inf")
            for record in trace:
                if record.metrics is not None:
                    shortfall = self.original.shortfall(record.metrics)
                    if shortfall < best:
                        best, reported = shortfall, record
        self.response = SizingResponse(
            request_id=self.request.id,
            topology=self.request.topology,
            method=self.request.method,
            success=success,
            widths=reported.widths if reported else None,
            metrics=reported.metrics if reported else None,
            iterations=len(trace),
            spice_simulations=sum(record.simulations for record in trace),
            wall_time_s=time.perf_counter() - self.start,
            decoded_texts=tuple(record.decoded_text for record in trace),
            corner_metrics=reported.corner_metrics if reported else None,
            worst_corner=reported.worst_corner if reported else None,
            trace=trace,
        )


class SizingEngine:
    """Batched request/response front end over one trained sizing model."""

    def __init__(
        self,
        model: SizingModel,
        cache_size: int = 256,
        backend: EvalBackend | None = None,
    ):
        self.model = model
        #: Stage IV evaluation strategy, shared with registry-dispatched
        #: solvers so SPICE-call accounting flows through one place.
        self.backend = backend if backend is not None else BatchedBackend()
        self.cache = ResultCache(cache_size) if cache_size else None
        self.stats = EngineStats()
        self._topologies: dict[str, OTATopology] = {}
        # Lazy topology construction may race under concurrent callers;
        # building twice would fork per-topology caches.
        self._topologies_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Topology resolution
    # ------------------------------------------------------------------
    def topology(self, name: str) -> OTATopology:
        """The engine's instance of a registered topology (lazily built)."""
        with self._topologies_lock:
            if name not in self._topologies:
                self._topologies[name] = topology_by_name(name)
            return self._topologies[name]

    def adopt_topology(self, topology: OTATopology) -> None:
        """Serve an already-instantiated topology (shares its caches)."""
        with self._topologies_lock:
            self._topologies[topology.name] = topology

    # ------------------------------------------------------------------
    # Stage III: Algorithm 1 through the LUTs
    # ------------------------------------------------------------------
    def widths_from_params(
        self, topology: OTATopology, parsed_values: dict[str, dict[str, float]]
    ) -> dict[str, float] | None:
        """Translate per-group device parameters into widths.

        Returns ``None`` when the predicted parameters are physically
        inconsistent (width candidates disagree beyond
        :data:`_MAX_CANDIDATE_SPREAD`), signalling the caller to retry
        inference instead of wasting a verification simulation.
        """
        widths: dict[str, float] = {}
        for group in topology.groups:
            params = parsed_values[group.name]
            tech = group.tech
            # gm/Id can never exceed the weak-inversion limit 1/(n*Ut); a
            # prediction above it is a transcription error on Id -- repair
            # it rather than letting Algorithm 1 chase an impossible point.
            gm_id_max = 0.95 / (tech.n_slope * tech.ut)
            id_value = max(params["id"], params["gm"] / gm_id_max)
            device_params = DeviceParams(
                gm=params["gm"],
                gds=params["gds"],
                cds=params["cds"],
                cgs=params["cgs"],
                id=id_value,
            )
            lut = self.model.lut_for(topology, group.name)
            estimate = estimate_width(device_params, lut, vdd=topology.vdd)
            if estimate.spread() > _MAX_CANDIDATE_SPREAD:
                return None
            low, high = _WIDTH_BOUNDS
            widths[group.name] = float(min(max(estimate.width, low), high))
        return widths

    # ------------------------------------------------------------------
    # Stage I/II: batched inference
    # ------------------------------------------------------------------
    def _infer_round(
        self, specs_by_topology: dict[str, list[DesignSpec]]
    ) -> dict[str, list[tuple[ParsedParams, str]]]:
        start = time.perf_counter()
        total = sum(len(specs) for specs in specs_by_topology.values())
        # One fused decode across every topology: the model is shared, so
        # the batch dimension spans the whole round (one row for one request).
        outputs = self.model.predict_params_many(specs_by_topology)
        self.stats.add(
            inference_seconds=time.perf_counter() - start,
            inference_calls=1,
            inference_sequences=total,
        )
        return outputs

    # ------------------------------------------------------------------
    # The copilot loop, round based
    # ------------------------------------------------------------------
    def _run(self, states: list[_ActiveRequest]) -> None:
        active = [s for s in states if s.response is None]
        while active:
            by_topology: dict[str, list[_ActiveRequest]] = {}
            for state in active:
                by_topology.setdefault(state.request.topology, []).append(state)
            outputs = self._infer_round(
                {name: [s.current for s in group] for name, group in by_topology.items()}
            )
            # Stage III for every request of the round; the candidates that
            # survive width estimation queue up for one bulk verification
            # per (topology, corner axis, analyses pipeline) instead of one
            # simulation per request -- corner requests stack
            # population x corners into the same batched solves, and
            # transient requests batch the step-response integrations of
            # the candidates that meet every AC target at every corner.
            verifiable: dict[tuple, list[tuple[_ActiveRequest, str, dict[str, float]]]] = {}
            for name, group in by_topology.items():
                for state, (parsed, text) in zip(group, outputs[name], strict=True):
                    if not parsed.complete:
                        state.end_round(IterationTrace(state.current, text, "unparseable"))
                        continue
                    widths = self.widths_from_params(state.topology, parsed.values)
                    if widths is None:
                        state.end_round(IterationTrace(state.current, text, "lut_rejected"))
                        continue
                    key = (name, state.request.corners, state.request.analyses)
                    verifiable.setdefault(key, []).append((state, text, widths))
            for (name, corners, analyses), candidates in verifiable.items():
                topology = candidates[0][0].topology
                widths_list = [widths for _, _, widths in candidates]
                specs = [state.derated for state, _, _ in candidates]
                sweeps = self.backend.measure_sweeps(
                    topology, widths_list, corners, analyses, specs
                )
                if "tran" in analyses:
                    # A converged pair without transient metrics is one the
                    # gate skipped.
                    self.stats.add(tran_skipped=sum(
                        1
                        for sweep in sweeps
                        for outcome in sweep.outcomes
                        if outcome.ok and not outcome.result.metrics.has_tran
                    ))
                for (state, text, widths), sweep in zip(candidates, sweeps, strict=True):
                    state.end_round(self._stage_iv(state, text, widths, sweep))
            active = [s for s in active if s.response is None]

    @staticmethod
    def _stage_iv(
        s: _ActiveRequest, text: str, widths: dict[str, float], sweep: CornerSweep
    ) -> IterationTrace:
        """Stage IV: one candidate judged across every corner of its sweep,
        returned as the round's record.

        The candidate passes only when **all** corners meet the derated
        spec (the original within ``rel_tol``, which also gated the
        transient); the record and margin allocation run against the
        binding worst corner (largest total shortfall), so retries tighten
        toward the hardest operating condition.  A nominal request is the
        one-corner ``tt`` sweep and records no per-corner fields.

        A candidate that missed an AC target at some corner ran no
        transient: its transient metrics are ``None``, each of its
        transient targets counts the full 1.0 shortfall of an unmeasured
        metric, and so both the binding corner and the best iterate rank
        it by its AC shortfall.

        A corner that did not converge (DC Newton or transient
        integration) makes the round ``nonconverged``; the corners that
        did still count as simulations, and one that did not costs
        nothing, matching the scalar path's convention that a failed
        measure() is no simulation.
        """
        if not sweep.ok:
            return IterationTrace(
                s.current, text, "nonconverged", widths, simulations=sweep.n_ok
            )
        worst_name, worst_metrics = sweep.worst_corner(s.original)
        corner_metrics = sweep.metrics_by_corner()
        satisfied = all(s.derated.satisfied(metrics) for metrics in corner_metrics.values())
        if not s.request.corners:
            corner_metrics, worst_name = None, None
        return IterationTrace(
            s.current, text, "success" if satisfied else "miss", widths,
            worst_metrics, corner_metrics, worst_name, sweep.n_ok,
        )

    # ------------------------------------------------------------------
    # Non-copilot methods: dispatch through the solver registry
    # ------------------------------------------------------------------
    def _solve_with_method(self, request: SizingRequest) -> SizingResponse:
        """Serve one request through a registered solver (``method`` != copilot).

        Stochastic solvers are seeded from a stable hash of the request id,
        so reruns of the same request stream are reproducible while distinct
        requests explore independently.  ``rel_tol`` derates the targets the
        solver chases, matching the copilot's tolerance semantics.
        """
        self.stats.add(solver_requests=1)
        try:
            topology = self.topology(request.topology)
            factory = solver_factory(request.method)
        except KeyError as error:
            return SizingResponse.failure(str(error), request)

        solver = factory(
            topology,
            backend=self.backend,
            corners=request.corners,
            analyses=request.analyses,
        )
        spec = request.spec.derated(request.rel_tol)
        rng = np.random.default_rng(zlib.crc32(request.id.encode()))
        result = solver.solve(spec, budget=request.budget, rng=rng)
        self.stats.add(spice_simulations=result.spice_calls)
        return SizingResponse(
            request_id=request.id,
            topology=request.topology,
            method=request.method,
            success=result.success,
            widths=result.best_widths,
            metrics=result.best_metrics,
            iterations=result.iterations,
            spice_simulations=result.spice_calls,
            wall_time_s=result.wall_time_s,
            corner_metrics=result.corner_metrics,
            worst_corner=result.worst_corner,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def size(self, request: SizingRequest) -> SizingResponse:
        """Serve one request (cache-aware single-shot path)."""
        return self.size_batch([request])[0]

    def size_batch(self, requests: Sequence[SizingRequest]) -> list[SizingResponse]:
        """Serve many requests with batched inference; order is preserved.

        Requests whose cached result transfers (see
        :class:`~repro.service.ResultCache`) skip inference entirely, as
        do *exact* in-batch duplicates, which coalesce onto one
        computation (cache enabled only; near-duplicates run their own
        Stage IV but still share the batched decode).  An unknown
        topology or solver method yields an error response instead of
        raising, so one bad request cannot poison a batch; so does a
        copilot request for a topology the model was not trained on.

        Requests naming a non-copilot ``method`` are dispatched to the
        solver registry (see :meth:`_solve_with_method`); the copilot
        requests of the batch still fuse into one decode.
        """
        self.stats.add(batches=1)
        responses: list[SizingResponse | None] = [None] * len(requests)
        states: dict[int, _ActiveRequest] = {}
        leaders: dict[object, int] = {}
        followers: dict[int, int] = {}

        for index, request in enumerate(requests):
            self.stats.add(requests=1)
            if request.method != "copilot":
                # Registry-dispatched solver: runs SPICE-in-the-loop on the
                # batched evaluation backend.  Never cached (stochastic).
                responses[index] = self._solve_with_method(request)
                continue
            if self.cache is not None:
                hit = self.cache.get(request)
                if hit is not None:
                    self.stats.add(cache_hits=1)
                    responses[index] = hit
                    continue
            try:
                topology = self.topology(request.topology)
                self.model.builder(request.topology)  # trained on it? (before fusing)
            except KeyError as error:
                responses[index] = SizingResponse.failure(str(error), request)
                continue
            if self.cache is not None:
                # Coalesce only *exact* in-batch duplicates: the flow is
                # deterministic, so the leader's outcome is theirs too.
                # Near-duplicates run on their own (Stage IV judges the
                # exact spec) — they still share the batched decode.
                key = (
                    request.topology, request.spec,
                    request.iteration_budget, request.rel_tol, request.corners,
                    request.analyses,
                )
                if key in leaders:
                    followers[index] = leaders[key]
                    self.stats.add(coalesced=1)
                    continue
                leaders[key] = index
            states[index] = _ActiveRequest(request, topology)

        self._run(list(states.values()))
        rounds = [
            record
            for state in states.values()
            for record in state.trace[: len(state.trace) - state.replayed]
        ]
        outcomes = Counter(f"rounds_{record.outcome}" for record in rounds)
        self.stats.add(
            spice_simulations=sum(record.simulations for record in rounds),
            rounds_replayed=sum(state.replayed for state in states.values()),
            **outcomes,
        )

        for index, state in states.items():
            response = state.response
            assert response is not None
            responses[index] = response
            if self.cache is not None:
                self.cache.put(state.request, response)

        for index, leader in followers.items():
            leader_response = responses[leader]
            assert leader_response is not None
            responses[index] = leader_response.with_request_id(requests[index].id)

        return [response for response in responses if response is not None]
