"""Differential-evolution solver (Table IX, Liu et al. style).

Classic DE/rand/1/bin over the normalized log-width box, batch-
synchronous: each generation builds every trial vector, submits the
whole trial population to the evaluation backend at once, then applies
greedy selection.  Terminates as soon as any member satisfies the
specification.  Degenerates to random search when the population is too
small for rand/1 mutation (fewer than four members).
"""

from __future__ import annotations

import time

import numpy as np

from ..core.specs import DesignSpec
from .base import Solver, SolveResult
from .registry import register

__all__ = ["DifferentialEvolutionSolver"]

#: Members per generation.
POPULATION_SIZE = 12
#: Differential weight of the rand/1 mutation and the binomial
#: crossover probability.
MUTATION = 0.6
CROSSOVER = 0.8


@register
class DifferentialEvolutionSolver(Solver):
    """DE/rand/1/bin over the normalized width box."""

    name = "de"

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

        size = min(POPULATION_SIZE, budget) if budget else 0
        iterations = 0
        if size:
            dim = objective.space.dimension
            population = rng.random((size, dim))
            values = objective.evaluate_many(population)

            while objective.spice_calls < budget and not objective.satisfied:
                iterations += 1
                k = min(size, budget - objective.spice_calls)
                trials = np.empty((k, dim))
                for i in range(k):
                    if size < 4:
                        trials[i] = rng.random(dim)
                        continue
                    others = [j for j in range(size) if j != i]
                    a, b, c = rng.choice(others, size=3, replace=False)
                    mutant = population[a] + MUTATION * (population[b] - population[c])
                    cross = rng.random(dim) < CROSSOVER
                    cross[rng.integers(dim)] = True
                    trials[i] = np.clip(np.where(cross, mutant, population[i]), 0.0, 1.0)
                trial_values = objective.evaluate_many(trials)
                selected = trial_values <= values[:k]
                population[:k][selected] = trials[selected]
                values[:k][selected] = trial_values[selected]

        return self._finish(objective, start, iterations)
