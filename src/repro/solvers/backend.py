"""Evaluation backends: how solvers and Stage IV talk to the SPICE substrate.

Every sizing method -- stochastic optimizer or transformer copilot --
ultimately asks the same question: *measure these candidate designs*.
:meth:`EvalBackend.measure_sweeps` is that question, and the backend's
one method: it takes a request's resolved :class:`~repro.devices.Corner`
tuple (empty means nominal, the one-corner ``tt`` sweep) and its
resolved analyses tuple (:data:`~repro.topologies.DEFAULT_ANALYSES` or
:data:`~repro.topologies.TRAN_ANALYSES`), and returns one
:class:`~repro.topologies.CornerSweep` per width vector with
per-(candidate, corner) failure isolation.  Solvers and Stage IV judge
every request through these sweeps, and pass the specs they judge
against so that the transient leg runs only for candidates whose AC
metrics already meet them.

:class:`BatchedBackend`, the one production backend, routes whole
populations through ``topology.measure_many``: the DC Newton solves
share one vectorized assembly, the AC solves stack into one complex MNA
factorization over population x frequency grid, and the corner axis
stacks into the same batched solves, so a population x corner block
costs one DC Newton batch and one stacked AC factorization per circuit
structure.  The sequential ``ScalarBackend`` in
``tests/scalar_reference.py`` (one scalar SPICE run per candidate-corner
pair) is the reference the parity tests and bench smokes pin these
results against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence

from ..core.specs import DesignSpec
from ..devices import NOMINAL_CORNER, Corner
from ..topologies import CornerSweep, OTATopology

__all__ = ["EvalBackend", "BatchedBackend"]


class EvalBackend(ABC):
    """Strategy for evaluating candidate width vectors of one topology."""

    @abstractmethod
    def measure_sweeps(
        self,
        topology: OTATopology,
        widths_list: Sequence[Mapping[str, float]],
        corners: tuple[Corner, ...],
        analyses: tuple[str, ...],
        specs: Sequence[DesignSpec] | None = None,
    ) -> list[CornerSweep]:
        """Measure every candidate at every corner; one sweep per width vector.

        ``corners`` is a resolved corner tuple; empty means nominal, the
        one-corner ``tt`` sweep.  ``analyses`` is a resolved pipeline
        (see :func:`repro.topologies.resolve_analyses`).

        ``specs``, aligned with ``widths_list``, is the spec each
        candidate is judged against, already derated by its tolerance.
        It gates the transient leg: only a candidate that converged at
        every corner and meets its spec's AC targets at every corner
        (:meth:`~repro.core.DesignSpec.ac_satisfied`) gets a transient.
        Any other candidate fails its spec whatever its step response; it
        keeps its AC metrics bit for bit and reports ``None`` transient
        fields.  ``None`` runs the transient for every converged pair.
        """


class BatchedBackend(EvalBackend):
    """Vectorized bulk backend over ``topology.measure_many``."""

    def measure_sweeps(
        self,
        topology: OTATopology,
        widths_list: Sequence[Mapping[str, float]],
        corners: tuple[Corner, ...],
        analyses: tuple[str, ...],
        specs: Sequence[DesignSpec] | None = None,
    ) -> list[CornerSweep]:
        return topology.measure_many(
            list(widths_list),
            corners=corners or (NOMINAL_CORNER,),
            analyses=analyses,
            specs=specs,
        )
