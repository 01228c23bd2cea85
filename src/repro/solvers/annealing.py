"""Simulated-annealing solver (Table IX, Gielen et al. style).

Gaussian moves in the normalized log-width space with a geometric cooling
schedule and Metropolis acceptance.  Several independent chains run in
lockstep (the paper's baseline used one), so each step submits one whole
proposal batch to the evaluation backend; the run terminates as soon as
any chain reaches zero specification shortfall, keeping the reported
SPICE-call count the cost *to reach a satisfying design*.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.specs import DesignSpec
from .base import Solver, SolveResult
from .registry import register

__all__ = ["SimulatedAnnealingSolver"]

#: Independent chains stepped in lockstep (one proposal batch per step).
CHAINS = 4
#: Geometric cooling schedule: starting temperature and per-step factor.
INITIAL_TEMPERATURE = 1.0
COOLING = 0.97
#: Standard deviation of a move in the normalized log-width box.
STEP_SCALE = 0.15


@register
class SimulatedAnnealingSolver(Solver):
    """Multi-chain simulated annealing over the normalized width box."""

    name = "sa"

    def solve(
        self,
        spec: DesignSpec,
        budget: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> SolveResult:
        budget = self._budget(budget)
        rng = self._rng(rng)
        objective = self._objective(spec)
        start = time.perf_counter()

        chains = min(CHAINS, budget) if budget else 0
        iterations = 0
        if chains:
            dim = objective.space.dimension
            current = np.stack([objective.space.random_point(rng) for _ in range(chains)])
            current_values = objective.evaluate_many(current)
            temperature = INITIAL_TEMPERATURE

            while objective.spice_calls < budget and not objective.satisfied:
                iterations += 1
                k = min(chains, budget - objective.spice_calls)
                moves = rng.normal(0.0, STEP_SCALE, size=(k, dim))
                candidates = np.clip(current[:k] + moves, 0.0, 1.0)
                candidate_values = objective.evaluate_many(candidates)
                delta = candidate_values - current_values[:k]
                # exp() argument clamped at 0: delta <= 0 accepts anyway.
                metropolis = rng.random(k) < np.exp(
                    np.minimum(-delta / max(temperature, 1e-9), 0.0)
                )
                accept = (delta <= 0.0) | metropolis
                current[:k][accept] = candidates[accept]
                current_values[:k][accept] = candidate_values[accept]
                temperature *= COOLING

        return self._finish(objective, start, iterations)
