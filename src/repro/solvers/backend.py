"""Evaluation backends: how solvers talk to the SPICE substrate.

Every sizing method -- stochastic optimizer or transformer copilot --
ultimately asks the same question: *measure this candidate design*.  The
backend abstraction decouples solvers from how that measurement is
executed.  :class:`BatchedBackend`, the one production backend, routes
whole populations through ``topology.measure_many``: the DC Newton
solves share one vectorized assembly, the AC solves stack into one
complex MNA factorization over population x frequency grid, and with
``corners=`` the corner axis stacks into the same batched solves, so a
population x corner block costs one DC Newton batch and one stacked AC
factorization per circuit structure.

Results come as ``list[MeasureOutcome]`` for flat calls and
``list[CornerSweep]`` when a ``corners=`` axis is requested, with
per-(candidate, corner) failure isolation.  The sequential
``ScalarBackend`` in ``tests/scalar_reference.py`` (one scalar SPICE run
per candidate) is the reference the parity tests and bench smokes pin
these results against.  Solvers and Stage IV read results through
:meth:`EvalBackend.measure_sweeps`, which returns sweeps for both shapes
(a nominal request is the one-corner ``tt`` axis), so they keep one
judging path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

from ..devices import NOMINAL_CORNER, CornerLike
from ..topologies import CornerSweep, OTATopology

__all__ = ["EvalBackend", "BatchedBackend"]


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
