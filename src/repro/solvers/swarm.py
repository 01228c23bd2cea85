"""Particle-swarm solver (Table IX, Vural & Yildirim).

Synchronous global-best PSO with inertia damping over the normalized
log-width box: every generation updates all velocities against the
previous generation's bests, then submits the whole repositioned swarm
to the evaluation backend as one population.  Terminates as soon as a
particle satisfies the specification.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.specs import DesignSpec
from .base import Solver, SolveResult
from .registry import register

__all__ = ["ParticleSwarmSolver"]

#: Particles per generation.
SWARM_SIZE = 12
#: Velocity update: inertia damping, then the pulls toward each
#: particle's own best (cognitive) and the swarm's best (social).
INERTIA = 0.72
COGNITIVE = 1.49
SOCIAL = 1.49


@register
class ParticleSwarmSolver(Solver):
    """Global-best PSO over the normalized width box."""

    name = "pso"

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

        swarm = min(SWARM_SIZE, budget) if budget else 0
        iterations = 0
        if swarm:
            dim = objective.space.dimension
            positions = rng.random((swarm, dim))
            velocities = rng.normal(0.0, 0.1, size=(swarm, dim))
            personal_best = positions.copy()
            personal_values = objective.evaluate_many(positions)

            global_idx = int(np.argmin(personal_values))
            global_best = personal_best[global_idx].copy()
            global_value = float(personal_values[global_idx])

            while objective.spice_calls < budget and not objective.satisfied:
                iterations += 1
                r1 = rng.random((swarm, dim))
                r2 = rng.random((swarm, dim))
                velocities = (
                    INERTIA * velocities
                    + COGNITIVE * r1 * (personal_best - positions)
                    + SOCIAL * r2 * (global_best - positions)
                )
                positions = np.clip(positions + velocities, 0.0, 1.0)
                k = min(swarm, budget - objective.spice_calls)
                values = objective.evaluate_many(positions[:k])
                improved = values < personal_values[:k]
                personal_values[:k][improved] = values[improved]
                personal_best[:k][improved] = positions[:k][improved]
                best_idx = int(np.argmin(personal_values))
                if float(personal_values[best_idx]) < global_value:
                    global_value = float(personal_values[best_idx])
                    global_best = personal_best[best_idx].copy()

        return self._finish(objective, start, iterations)
