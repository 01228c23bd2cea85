"""Evaluation backends: how solvers talk to the SPICE substrate.

Every sizing method -- stochastic optimizer or transformer copilot --
ultimately asks the same question: *measure this candidate design*.  The
backend abstraction decouples solvers from how that measurement is
executed:

* :class:`ScalarBackend` calls ``topology.measure`` once per candidate
  (and, on the corner axis, once per candidate-corner pair) -- the
  reference semantics (and the pre-redesign behavior of the Table IX
  baselines);
* :class:`BatchedBackend` routes whole populations through
  ``topology.measure_many``, which vectorizes the per-candidate AC solves
  (stacked complex MNA over population x frequency grid) and amortizes
  the DC Newton assembly across candidates; with ``corners=`` the corner
  axis stacks into the same batched solves, so a population x corner
  block costs one DC Newton batch and one stacked AC factorization per
  circuit structure.

Both produce the same result shapes -- ``list[MeasureOutcome]`` for flat
calls, ``list[CornerSweep]`` when a ``corners=`` axis is requested --
with bit-identical metrics and per-(candidate, corner) failure
isolation, so solvers can switch backends without changing results
(``bench_table9`` pins the flat parity and throughput gap;
``bench_table8``'s corner mode pins the corner-axis counterpart).
Solvers and Stage IV read results through
:meth:`EvalBackend.measure_sweeps`, which returns sweeps for both shapes
(a nominal request is the one-corner ``tt`` axis), so they keep one
judging path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

from ..devices import NOMINAL_CORNER, Corner, CornerLike, resolve_corners
from ..spice import ConvergenceError
from ..topologies import CornerSweep, MeasureOutcome, OTATopology

__all__ = ["EvalBackend", "ScalarBackend", "BatchedBackend"]


class EvalBackend(ABC):
    """Strategy for evaluating candidate width vectors of one topology."""

    @abstractmethod
    def measure_many(
        self,
        topology: OTATopology,
        widths_list: Sequence[Mapping[str, float]],
        corners: Sequence[CornerLike] | None = None,
        analyses: Sequence[str] | None = None,
    ) -> list:
        """Measure every candidate; one aligned outcome per width vector.

        ``corners=None`` evaluates at the nominal corner and returns
        ``list[MeasureOutcome]`` (the pre-corner contract, bit-identical).
        A corner sequence evaluates every candidate at every corner and
        returns ``list[CornerSweep]`` with per-(candidate, corner)
        isolation.

        ``analyses`` selects the measurement pipeline (see
        :func:`repro.topologies.resolve_analyses`); ``None`` is the
        AC-only default, bit-identical to the pre-transient contract.
        Callers only pass the keyword when a non-default pipeline is
        requested, so backends implementing the narrower pre-transient
        signature keep working on the default path.
        """

    def measure_sweeps(
        self,
        topology: OTATopology,
        widths_list: Sequence[Mapping[str, float]],
        corners: Sequence[CornerLike] = (),
        analyses: Sequence[str] | None = None,
    ) -> list[CornerSweep]:
        """Measure every candidate as a :class:`CornerSweep`, for both
        request shapes: a nominal request (empty ``corners``) is the
        one-corner ``tt`` axis.

        ``corners`` and ``analyses`` reach :meth:`measure_many` only when
        set, so backends implementing the narrower nominal, AC-only
        signature keep serving those requests.
        """
        kwargs = {} if analyses is None else {"analyses": analyses}
        if corners:
            return self.measure_many(topology, widths_list, corners=corners, **kwargs)
        outcomes = self.measure_many(topology, widths_list, **kwargs)
        return [
            CornerSweep(widths=dict(widths), corners=(NOMINAL_CORNER,), outcomes=(outcome,))
            for widths, outcome in zip(widths_list, outcomes, strict=True)
        ]

    def measure(
        self,
        topology: OTATopology,
        widths: Mapping[str, float],
        corner: CornerLike = None,
        analyses: Sequence[str] | None = None,
    ) -> MeasureOutcome:
        """Single-candidate convenience wrapper over :meth:`measure_sweeps`."""
        corners = () if corner is None else (corner,)
        return self.measure_sweeps(topology, [widths], corners, analyses)[0].outcomes[0]


class ScalarBackend(EvalBackend):
    """Sequential reference backend: one full SPICE run per candidate
    (per candidate-corner pair on the corner axis)."""

    def measure_many(
        self,
        topology: OTATopology,
        widths_list: Sequence[Mapping[str, float]],
        corners: Sequence[CornerLike] | None = None,
        analyses: Sequence[str] | None = None,
    ) -> list:
        if corners is None:
            return [
                self._sweep_one(topology, widths, (NOMINAL_CORNER,), analyses).outcomes[0]
                for widths in widths_list
            ]
        resolved = resolve_corners(corners)
        if not resolved:
            # Same contract as the batched path (which inherits the
            # check from topology.measure_many): an empty corner axis
            # would yield vacuous all-pass sweeps.
            raise ValueError("corners must be non-empty (use corners=None for nominal)")
        return [self._sweep_one(topology, widths, resolved, analyses) for widths in widths_list]

    @staticmethod
    def _sweep_one(
        topology: OTATopology,
        widths: Mapping[str, float],
        corners: tuple[Corner, ...],
        analyses: Sequence[str] | None = None,
    ) -> CornerSweep:
        outcomes = []
        for corner in corners:
            outcome = MeasureOutcome(widths=dict(widths))
            try:
                outcome.result = topology.measure(widths, corner=corner, analyses=analyses)
            except (ConvergenceError, KeyError, ValueError) as error:
                outcome.error = str(error)
            outcomes.append(outcome)
        return CornerSweep(widths=dict(widths), corners=corners, outcomes=tuple(outcomes))


class BatchedBackend(EvalBackend):
    """Vectorized bulk backend over ``topology.measure_many``."""

    def measure_many(
        self,
        topology: OTATopology,
        widths_list: Sequence[Mapping[str, float]],
        corners: Sequence[CornerLike] | None = None,
        analyses: Sequence[str] | None = None,
    ) -> list:
        return topology.measure_many(list(widths_list), corners=corners, analyses=analyses)
