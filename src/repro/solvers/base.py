"""The unified solver API: one protocol for the SPICE-in-the-loop methods.

The paper's Table IX pits the transformer copilot against SPICE-in-the-
loop optimizers.  This module gives those optimizers one protocol.  A
*solver* takes a specification, a budget and an rng and returns a
:class:`SolveResult` with unified success / SPICE-call / wall-time /
history accounting::

    result = repro.solvers.get("pso")(topology).solve(spec, budget=400, rng=rng)

The solvers (SA / PSO / DE) share :class:`SearchObjective`, the one
place that owns best-value and history bookkeeping and submits whole
populations to an :class:`~repro.solvers.backend.EvalBackend` so
generation evaluation is vectorized.

``history`` semantics are identical for every solver: entry ``k`` is the
best objective value seen after SPICE call ``k+1`` (best-so-far, hence
monotonically non-increasing).

**Corner-aware search.**  Every solver accepts ``corners=`` (PVT corner
presets or :class:`~repro.devices.Corner` objects).  When set, objectives
are **worst-corner aggregates**: each candidate is evaluated at every
corner and scored by its *worst* corner's shortfall, so a solve succeeds
only when the design meets the specification at **all** corners; each
corner evaluation counts as one SPICE call toward the budget.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..core.specs import DesignSpec
from ..devices import Corner, CornerLike, resolve_corners
from ..spice import PerformanceMetrics
from ..topologies import (
    CornerSweep,
    MeasureOutcome,
    OTATopology,
    analyses_for_spec,
    resolve_analyses,
)
from .backend import BatchedBackend, EvalBackend

__all__ = [
    "PENALTY",
    "DEFAULT_BUDGET",
    "SearchSpace",
    "SearchObjective",
    "SolveResult",
    "Solver",
]

#: Objective value assigned to non-simulatable / invalid designs.
PENALTY = 10.0

#: Default SPICE-evaluation budget of the search-based solvers.
DEFAULT_BUDGET = 500


class SearchSpace:
    """Log-uniform box over per-group widths, normalized to [0, 1]^n."""

    def __init__(self, topology: OTATopology):
        self.topology = topology
        self.names = list(topology.group_names)
        self._log_low = np.array(
            [np.log(topology.group(name).width_bounds[0]) for name in self.names]
        )
        self._log_high = np.array(
            [np.log(topology.group(name).width_bounds[1]) for name in self.names]
        )

    @property
    def dimension(self) -> int:
        return len(self.names)

    def decode(self, point: np.ndarray) -> dict[str, float]:
        """[0,1]^n point -> width dictionary."""
        clipped = np.clip(np.asarray(point, dtype=float), 0.0, 1.0)
        log_widths = self._log_low + clipped * (self._log_high - self._log_low)
        return {name: float(np.exp(w)) for name, w in zip(self.names, log_widths, strict=True)}

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        return rng.random(self.dimension)


@dataclass
class SolveResult:
    """Outcome of one solver run, comparable across all sizing methods.

    On corner-aware runs ``best_value``/``best_metrics`` refer to the best
    design's *binding worst corner* (objectives are worst-corner
    aggregates), ``corner_metrics`` carries its per-corner measurements
    and ``worst_corner`` names the binding corner.
    """

    solver: str
    success: bool
    spice_calls: int
    wall_time_s: float
    best_value: float
    best_widths: dict[str, float] | None
    best_metrics: PerformanceMetrics | None = None
    history: list[float] = field(default_factory=list)
    iterations: int = 0
    corner_metrics: dict[str, PerformanceMetrics] | None = None
    worst_corner: str | None = None


class SearchObjective:
    """Spec-shortfall objective with unified SPICE-call/best bookkeeping.

    The objective is the total relative shortfall against the
    specification (0 means every target is met) with a penalty for
    designs that fail to simulate.  Candidates are submitted to the
    evaluation backend in bulk; accounting stays per SPICE call.

    With ``corners`` set, the objective is the **worst-corner aggregate**:
    each candidate's score is the maximum shortfall over its corners (a
    corner that fails to simulate scores the full penalty), so the
    objective reaches 0 only when every corner meets the specification.
    Every corner evaluation counts as one SPICE call.

    ``spec`` is also the transient gate handed to the backend: a candidate
    that misses an AC target at some corner runs no transient, and each
    of the spec's transient targets scores it the full 1.0 that
    ``DesignSpec.shortfall`` gives an unmeasured metric.
    """

    def __init__(
        self,
        topology: OTATopology,
        spec: DesignSpec,
        backend: EvalBackend | None = None,
        corners: Sequence[CornerLike] | None = None,
        analyses: Sequence[str] | None = None,
    ):
        self.topology = topology
        self.spec = spec
        self.backend = backend if backend is not None else BatchedBackend()
        #: Resolved PVT corner axis; empty tuple = nominal-only (judged as
        #: the one-corner ``tt`` sweep, without per-corner results).
        self.corners: tuple[Corner, ...] = resolve_corners(corners)
        #: Resolved measurement pipeline: the requested analyses, plus
        #: whatever the spec needs to be judged at all.
        self.analyses: tuple[str, ...] = analyses_for_spec(spec, analyses)
        self.space = SearchSpace(topology)
        self.spice_calls = 0
        self.best_value = float("inf")
        self.best_widths: dict[str, float] | None = None
        self.best_metrics: PerformanceMetrics | None = None
        self.best_corner_metrics: dict[str, PerformanceMetrics] | None = None
        self.best_worst_corner: str | None = None
        self.history: list[float] = []
        #: Running minimum over *observed* objective values, penalties
        #: included — what ``history`` records.  Unlike ``best_value`` it
        #: is finite from the very first SPICE call (a penalized candidate
        #: scored PENALTY; it did not score infinity).
        self._best_seen = float("inf")

    def evaluate_many(self, points: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate a population of normalized points; lower is better."""
        widths_list = [self.space.decode(point) for point in points]
        sweeps = self.backend.measure_sweeps(
            self.topology, widths_list, self.corners, self.analyses,
            [self.spec] * len(widths_list),
        )
        return np.array(
            [self._record_sweep(w, s) for w, s in zip(widths_list, sweeps, strict=True)],
            dtype=float,
        )

    def evaluate_one(self, point: np.ndarray) -> float:
        return float(self.evaluate_many(np.asarray(point, dtype=float)[None, :])[0])

    def _corner_value(self, outcome: MeasureOutcome) -> float:
        """One corner's score: the spec shortfall, or a penalty."""
        if not outcome.ok:
            return PENALTY
        return self.spec.shortfall(outcome.result.metrics)

    def _record_sweep(self, widths: dict[str, float], sweep: CornerSweep) -> float:
        """Worst-corner aggregate of one candidate's corner sweep.

        A nominal evaluation is the one-corner ``tt`` sweep: one SPICE
        call, its corner's score, and no per-corner bookkeeping.
        """
        self.spice_calls += len(sweep.corners)
        values = [self._corner_value(outcome) for outcome in sweep.outcomes]
        value = max(values)
        # Only candidates whose every corner simulated can become the
        # incumbent -- a penalized corner disqualifies.
        if sweep.ok and value < self.best_value:
            self.best_value = value
            self.best_widths = widths
            # The binding corner by CornerSweep's two-level ranking: the
            # worst miss, or the least margin when every corner passes.
            worst_name, worst_metrics = sweep.worst_corner(self.spec)
            self.best_metrics = worst_metrics
            if self.corners:
                self.best_worst_corner = worst_name
                self.best_corner_metrics = sweep.metrics_by_corner()
        # One history entry per SPICE call (entry k = best observed after
        # call k+1).  ``best_value`` stays inf until the first simulatable
        # candidate; history records the best *observed* value instead,
        # keeping every entry finite, JSON-serializable and monotone.  The
        # candidate's worst-corner aggregate is only known once its *last*
        # corner has simulated, so the in-sweep prefix records the prior
        # best (floored at PENALTY -- an observed corner scores at worst
        # PENALTY) and the aggregate lands on the sweep's final call.
        prefix = min(self._best_seen, PENALTY)
        self._best_seen = min(self._best_seen, value)
        self.history.extend([prefix] * (len(sweep.corners) - 1))
        self.history.append(self._best_seen)
        return value

    @property
    def satisfied(self) -> bool:
        return self.best_value <= 0.0


class Solver(ABC):
    """One SPICE-in-the-loop sizing method over one topology.

    Every registered solver is constructed as
    ``factory(topology, backend=..., corners=..., analyses=...)``.
    ``backend`` is the evaluation backend (``None`` means the batched
    one).  ``corners`` selects the PVT corner axis -- when set, the
    objective built by :meth:`_objective` scores every generation by
    worst-corner aggregates (see :class:`SearchObjective`), and a solve
    succeeds only when the design meets spec at every corner.
    ``analyses`` selects the measurement pipeline (``None`` is the
    AC-only default; a spec with transient targets pulls the transient
    leg in regardless).
    """

    #: Registry name, e.g. ``"sa"``; also stamped on results.
    name: str = "solver"

    def __init__(
        self,
        topology: OTATopology,
        *,
        backend: EvalBackend | None = None,
        corners: Sequence[CornerLike] | None = None,
        analyses: Sequence[str] | None = None,
    ):
        self.topology = topology
        self.backend = backend if backend is not None else BatchedBackend()
        #: Resolved corner axis; empty = nominal-only evaluation.
        self.corners: tuple[Corner, ...] = resolve_corners(corners)
        #: Resolved requested pipeline; each spec may pull ``tran`` in.
        self.analyses: tuple[str, ...] = resolve_analyses(analyses)

    @abstractmethod
    def solve(
        self,
        spec: DesignSpec,
        budget: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> SolveResult:
        """Search for a design meeting ``spec`` within ``budget`` SPICE calls.

        ``budget`` bounds the number of SPICE evaluations; ``None``
        selects :data:`DEFAULT_BUDGET`.  ``rng`` drives any stochastic
        choices; ``None`` means a fixed default seed.
        """

    def _objective(self, spec: DesignSpec) -> SearchObjective:
        return SearchObjective(
            self.topology,
            spec,
            backend=self.backend,
            corners=self.corners,
            analyses=self.analyses,
        )

    @staticmethod
    def _rng(rng: np.random.Generator | None) -> np.random.Generator:
        return rng if rng is not None else np.random.default_rng(0)

    @staticmethod
    def _budget(budget: int | None) -> int:
        if budget is None:
            return DEFAULT_BUDGET
        if budget < 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        return budget

    def _finish(
        self, objective: SearchObjective, start: float, iterations: int
    ) -> SolveResult:
        return SolveResult(
            solver=self.name,
            success=objective.satisfied,
            spice_calls=objective.spice_calls,
            wall_time_s=time.perf_counter() - start,
            best_value=objective.best_value,
            best_widths=objective.best_widths,
            best_metrics=objective.best_metrics,
            history=list(objective.history),
            iterations=iterations,
            corner_metrics=objective.best_corner_metrics,
            worst_corner=objective.best_worst_corner,
        )
