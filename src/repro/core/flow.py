"""Results of the end-to-end sizing flow (Fig. 3).

The flow itself -- Stage I/II inference, Stage III width estimation
through the LUTs, Stage IV verification with margin allocation on a
shortfall -- runs in :class:`repro.service.SizingEngine`, which batches
it across requests (``size_results`` for these library objects,
``size_batch`` for wire responses).  This module holds what one request
produces: a :class:`SizingResult` with one :class:`IterationTrace` per
copilot iteration.  The flow counts verification SPICE simulations
explicitly: the headline claim of the paper is that >90% of designs need
exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..spice import PerformanceMetrics
from .specs import DesignSpec

__all__ = ["SizingResult", "IterationTrace"]


@dataclass
class IterationTrace:
    """Diagnostics of one copilot iteration."""

    requested_spec: DesignSpec
    decoded_text: str
    parsed_ok: bool
    widths: dict[str, float] | None
    metrics: PerformanceMetrics | None
    satisfied: bool


@dataclass
class SizingResult:
    """Outcome of one sizing request.

    On corner-aware requests, ``metrics`` refers to the binding *worst*
    corner (a design passes only when every corner passes),
    ``corner_metrics`` carries the per-corner measurements keyed by corner
    name, and ``worst_corner`` names the binding corner.
    """

    success: bool
    spec: DesignSpec
    widths: dict[str, float] | None
    metrics: PerformanceMetrics | None
    iterations: int
    spice_simulations: int
    wall_time_s: float
    trace: list[IterationTrace] = field(default_factory=list)
    corner_metrics: dict[str, PerformanceMetrics] | None = None
    worst_corner: str | None = None

    @property
    def single_simulation(self) -> bool:
        """True when the very first verification already satisfied specs."""
        return self.success and self.spice_simulations == 1
