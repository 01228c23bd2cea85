"""Performance specifications: the one judge of measured metrics.

The paper's specification vector is (gain, 3 dB bandwidth, UGF), all
treated as *minimum* requirements: Tables III/V/VII report success when the
optimized circuit meets or exceeds every target.

The transient extension adds three optional time-domain targets measured
on the step response (:mod:`repro.spice.tran`): a **minimum** slew rate,
a **maximum** settling time and a **maximum** overshoot.  They default to
``None`` (not specified), so a spec without them behaves bit-identically
to the pre-transient three-metric spec -- same equality, same
``miss_fractions`` keys, same hash.

Every judgement of measured metrics against a spec lives here: the
verdict (:meth:`DesignSpec.satisfied`), the tolerance
(:meth:`DesignSpec.derated`), the ranking score
(:meth:`DesignSpec.shortfall`) and the binding corner
(:meth:`DesignSpec.binding_corner`), all reading one direction table.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, fields, replace

from ..spice import TRAN_METRIC_DIRECTIONS, PerformanceMetrics

__all__ = ["DesignSpec"]

#: The AC triple, the paper's specification vector: always set.
_AC_TARGETS = ("gain_db", "f3db_hz", "ugf_hz")

#: Every target's direction, in judging order: ``min`` targets are floors
#: (the measured value must be >=), ``max`` targets are ceilings (<=).
#: The transient directions live beside their extraction in
#: :mod:`repro.spice.metrics`.
_DIRECTIONS = {**dict.fromkeys(_AC_TARGETS, "min"), **TRAN_METRIC_DIRECTIONS}


def _signed_miss(direction: str, target: float, value: float | None) -> float:
    """One metric's relative shortfall against its target, negative when it
    meets the target with margin; an unmeasured (``None``) or NaN metric
    counts 1.0."""
    if value is None or value != value:
        return 1.0
    return (target - value) / target if direction == "min" else (value - target) / target


@dataclass(frozen=True)
class DesignSpec:
    """Minimum targets for the three OTA metrics, plus optional transient
    targets (min slew rate, max settling time, max overshoot)."""

    gain_db: float
    f3db_hz: float
    ugf_hz: float
    slew_v_per_s: float | None = None
    settling_time_s: float | None = None
    overshoot_frac: float | None = None

    def __post_init__(self) -> None:
        if self.gain_db <= 0 or self.f3db_hz <= 0 or self.ugf_hz <= 0:
            raise ValueError(f"spec targets must be positive: {self}")
        for name, target in self.tran_targets().items():
            if target <= 0:
                raise ValueError(f"spec target {name} must be positive when set: {self}")

    # ------------------------------------------------------------------
    @property
    def requires_tran(self) -> bool:
        """True when any transient target is set (a transient analysis is
        needed to judge this spec)."""
        return bool(self.tran_targets())

    def tran_targets(self) -> dict[str, float]:
        """The transient targets that are set, keyed by field name."""
        return {
            name: target
            for name, _, target in self._targets()
            if name in TRAN_METRIC_DIRECTIONS
        }

    def _targets(self) -> Iterator[tuple[str, str, float]]:
        """``(name, direction, target)`` of every set target, in table order."""
        for name, direction in _DIRECTIONS.items():
            target = getattr(self, name)
            if target is not None:
                yield name, direction, target

    # ------------------------------------------------------------------
    def derated(self, rel_tol: float) -> DesignSpec:
        """This spec loosened by a relative tolerance, the one tolerance
        formula: minimum targets are lowered by ``1 - rel_tol``, maximum
        targets (settling time, overshoot) raised by ``1 + rel_tol``.
        ``0`` returns the spec itself."""
        if not rel_tol:
            return self
        return self.scaled({
            name: 1.0 - rel_tol if direction == "min" else 1.0 + rel_tol
            for name, direction in _DIRECTIONS.items()
        })

    def _meets(self, metrics: PerformanceMetrics, names: Iterable[str]) -> bool:
        """True when the metric of every set target among ``names`` is
        measured, finite and on the target's side of it."""
        for name in names:
            target = getattr(self, name)
            if target is None:
                continue
            value = getattr(metrics, name)
            if value is None or not math.isfinite(value):
                return False
            if value < target if _DIRECTIONS[name] == "min" else value > target:
                return False
        return True

    def ac_satisfied(self, metrics: PerformanceMetrics, rel_tol: float = 0.0) -> bool:
        """True when the AC triple is resolvable and meets its targets.

        The AC half of :meth:`satisfied`, and the gate Stage IV puts in
        front of the transient: a design failing it fails the spec
        whatever its step response, so its transient is never run.
        """
        return self.derated(rel_tol)._meets(metrics, _AC_TARGETS)

    def satisfied(self, metrics: PerformanceMetrics, rel_tol: float = 0.0) -> bool:
        """True when every measured metric meets its target.

        Judges :meth:`derated` by ``rel_tol`` (useful for "within 1%"
        success accounting).  Transient targets are judged only when set;
        a set target whose metric was never measured (``None``) or is
        non-finite fails.
        """
        return self.derated(rel_tol)._meets(metrics, _DIRECTIONS)

    def miss_fractions(self, metrics: PerformanceMetrics) -> dict[str, float]:
        """Relative shortfall per metric (0 when the target is met).

        Keys are exactly the targets this spec sets: always the AC triple,
        plus one entry per set transient target -- so specs without
        transient targets keep the pre-transient dict shape.  Maximum
        targets (settling, overshoot) contribute their relative *excess*,
        capped at the 1.0 an unmeasured or non-finite metric contributes.
        The cap ranks AC shortfall first: a design that meets every AC
        target scores at most 1.0 per transient target, and one that misses
        an AC target (so Stage IV skipped its transient) scores 1.0 per
        transient target plus its AC shortfall.
        """
        misses = {}
        for name, direction, target in self._targets():
            miss = max(0.0, _signed_miss(direction, target, getattr(metrics, name)))
            misses[name] = miss if direction == "min" else min(1.0, miss)
        return misses

    def shortfall(self, metrics: PerformanceMetrics) -> float:
        """Total relative shortfall, 0 when every target is met: the one
        score that ranks designs (Stage IV's best iterate, the solvers'
        objective, the first key of :meth:`binding_corner`)."""
        return sum(self.miss_fractions(metrics).values())

    def _net_shortfall(self, metrics: PerformanceMetrics) -> float:
        """Total *signed* relative shortfall: the unclamped counterpart of
        :meth:`shortfall`, where passing metrics contribute their negative
        margin instead of 0."""
        total = 0.0
        for name, direction, target in self._targets():
            total += _signed_miss(direction, target, getattr(metrics, name))
        return total

    def binding_corner(
        self, metrics_by_corner: Mapping[str, PerformanceMetrics]
    ) -> tuple[str, PerformanceMetrics]:
        """The binding corner of per-corner metrics against this spec.

        Ranked by (:meth:`shortfall`, signed shortfall): a failing corner
        always outranks a passing one by its miss, and when every corner
        passes (all shortfalls are 0) the signed tie-break picks the
        corner with the *least margin* -- the one that actually binds the
        worst-case guarantee.  Remaining ties resolve to the first corner
        in mapping order, so the result is deterministic.
        """
        if not metrics_by_corner:
            raise ValueError("binding_corner needs at least one corner's metrics")
        return max(
            metrics_by_corner.items(),
            key=lambda item: (self.shortfall(item[1]), self._net_shortfall(item[1])),
        )

    def scaled(self, factors: dict[str, float]) -> DesignSpec:
        """Return a spec with each named target multiplied by its factor.

        Targets without a factor (and unset transient targets) are
        carried over unchanged.
        """
        updates = {}
        for field_ in fields(self):
            value = getattr(self, field_.name)
            if value is not None and field_.name in factors:
                updates[field_.name] = value * factors[field_.name]
        return replace(self, **updates)

    @classmethod
    def from_metrics(cls, metrics: PerformanceMetrics, slack: float = 0.0) -> DesignSpec:
        """Spec targeting a measured design's metrics, :meth:`derated` by
        ``slack``, which makes achievable validation specs from held-out
        designs.  Transient targets are adopted only when the metrics carry
        them finite and positive (a perfectly monotone 0.0 overshoot cannot
        be a positive ceiling).
        """
        targets = {name: getattr(metrics, name) for name in _AC_TARGETS}
        for name in TRAN_METRIC_DIRECTIONS:
            value = getattr(metrics, name)
            if value is not None and math.isfinite(value) and value > 0:
                targets[name] = value
        return cls(**targets).derated(slack)
