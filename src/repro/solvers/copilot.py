"""The transformer copilot as a registered solver.

Wraps the Fig. 3 flow (transformer inference + LUT width estimation +
one verification simulation per copilot iteration, margin allocation on
shortfall) behind the unified :class:`~repro.solvers.Solver` protocol,
so Table IX comparisons and the sizing service dispatch it exactly like
the SPICE-in-the-loop baselines.  ``budget`` counts copilot iterations
(``None``: the request default of six, the paper's flow cap); each costs
at most one verification simulation, so it is also the SPICE budget the
comparison hinges on.  A solve is a one-request ``SizingEngine.size_batch``;
a topology the model was not trained on raises ``ValueError``.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.specs import DesignSpec
from .base import Solver, SolveResult
from .registry import register

__all__ = ["CopilotSolver", "solve_result_from_sizing"]


def solve_result_from_sizing(name: str, spec: DesignSpec, response) -> SolveResult:
    """Convert a copilot :class:`~repro.service.SizingResponse` to a :class:`SolveResult`.

    ``history`` keeps the unified semantics -- best-so-far spec shortfall
    after each SPICE call -- reconstructed from ``response.trace``
    (iterations whose design failed to simulate consumed no SPICE call
    and therefore contribute no entry).
    """
    history: list[float] = []
    best = float("inf")
    for trace in response.trace:
        if trace.metrics is None:
            continue
        shortfall = float(sum(spec.miss_fractions(trace.metrics).values()))
        best = min(best, shortfall)
        history.append(best)
    best_value = (
        float(sum(spec.miss_fractions(response.metrics).values()))
        if response.metrics is not None
        else float("inf")
    )
    return SolveResult(
        solver=name,
        success=response.success,
        spice_calls=response.spice_simulations,
        wall_time_s=response.wall_time_s,
        best_value=best_value,
        best_widths=response.widths,
        best_metrics=response.metrics,
        history=history,
        iterations=response.iterations,
        corner_metrics=response.corner_metrics,
        worst_corner=response.worst_corner,
    )


@register
class CopilotSolver(Solver):
    """Transformer+LUT sizing flow behind the unified solver protocol."""

    name = "copilot"

    def __init__(self, topology, *, backend=None, model=None, corners=None, analyses=None):
        super().__init__(
            topology, backend=backend, model=model, corners=corners, analyses=analyses
        )
        if model is None:
            raise ValueError("CopilotSolver needs a trained model=")
        from ..service.engine import SizingEngine

        # The solver's backend becomes the engine's Stage IV strategy,
        # so verification accounting flows through the same place as
        # the search-based solvers'.
        self.engine = SizingEngine(model, cache_size=0, backend=self.backend)
        self.engine.adopt_topology(topology)

    def solve(
        self,
        spec: DesignSpec,
        budget: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> SolveResult:
        del rng  # The flow is deterministic: greedy decoding, no sampling.
        from ..service.requests import SizingRequest

        start = time.perf_counter()
        request = SizingRequest(
            topology=self.topology.name,
            spec=spec,
            budget=budget,
            corners=self.corners,
            analyses=self.analyses,
        )
        (response,) = self.engine.size_batch([request])
        if response.error is not None:
            raise ValueError(response.error)
        solved = solve_result_from_sizing(self.name, spec, response)
        solved.wall_time_s = time.perf_counter() - start
        return solved
