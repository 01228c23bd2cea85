"""Unified solver API over a batched SPICE evaluation backend.

The SPICE-in-the-loop baselines of Table IX (SA / PSO / DE) implement
one protocol::

    solver = repro.solvers.get("pso")(topology)          # or .create(...)
    result = solver.solve(spec, budget=400, rng=rng)     # -> SolveResult

with unified success / SPICE-call / wall-time / history accounting, and
all of them are dispatchable by name through the registry (mirroring the
topology registry), the sizing engine (``SizingRequest.method``) and the
CLI (``python -m repro size --method pso``).  The transformer copilot is
not a solver: :class:`~repro.service.SizingEngine` runs it, and this
package imports nothing from the service layers above it.

Underneath, population-based solvers submit whole generations to an
:class:`EvalBackend`, whose one method ``measure_sweeps`` takes the
resolved corner axis and analyses, and the spec that gates each
candidate's transient; the default :class:`BatchedBackend`
vectorizes the per-candidate small-signal AC solves (one stacked complex
MNA solve over population x frequency grid) and amortizes the DC Newton
assembly across candidates, with per-candidate failure isolation --
bit-identical to the sequential scalar reference in
``tests/scalar_reference.py``, just faster (``bench_table9`` pins both
claims).

Every solver also accepts ``corners=`` (PVT presets ``"tt"/"ss"/"ff"`` or
:class:`~repro.devices.Corner` objects).  With corners set, objectives
are **worst-corner aggregates** -- each candidate is scored by its worst
corner and a solve succeeds only when the design meets spec at *every*
corner -- and the population x corner block stacks into the same batched
solves (``bench_table8``'s corner mode pins parity and the >=2x gain).
"""

from .backend import BatchedBackend, EvalBackend
from .base import (
    DEFAULT_BUDGET,
    PENALTY,
    SearchObjective,
    SearchSpace,
    Solver,
    SolveResult,
)
from .registry import (
    available_solvers,
    create,
    get,
    register,
    solver_factory,
    unregister,
)

# Importing the solver modules registers the stock methods.
from .annealing import SimulatedAnnealingSolver
from .evolution import DifferentialEvolutionSolver
from .swarm import ParticleSwarmSolver

__all__ = [
    "BatchedBackend",
    "EvalBackend",
    "DEFAULT_BUDGET",
    "PENALTY",
    "SearchObjective",
    "SearchSpace",
    "Solver",
    "SolveResult",
    "available_solvers",
    "create",
    "get",
    "register",
    "solver_factory",
    "unregister",
    "SimulatedAnnealingSolver",
    "DifferentialEvolutionSolver",
    "ParticleSwarmSolver",
]
