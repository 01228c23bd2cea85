"""Performance specifications and satisfaction checks.

The paper's specification vector is (gain, 3 dB bandwidth, UGF), all
treated as *minimum* requirements: Tables III/V/VII report success when the
optimized circuit meets or exceeds every target.

The transient extension adds three optional time-domain targets measured
on the step response (:mod:`repro.spice.tran`): a **minimum** slew rate,
a **maximum** settling time and a **maximum** overshoot.  They default to
``None`` (not specified), so a spec without them behaves bit-identically
to the pre-transient three-metric spec -- same equality, same
``miss_fractions`` keys, same hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from ..spice import TRAN_METRIC_DIRECTIONS, PerformanceMetrics

__all__ = ["DesignSpec"]

#: Transient spec fields and their direction: ``min`` targets are floors
#: (measured value must be >=), ``max`` targets are ceilings (<=).  The
#: canonical map lives beside the metric extraction in
#: :mod:`repro.spice.metrics`.
_TRAN_FIELDS = TRAN_METRIC_DIRECTIONS


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
        for name in _TRAN_FIELDS:
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"spec target {name} must be positive when set: {self}")

    # ------------------------------------------------------------------
    @property
    def requires_tran(self) -> bool:
        """True when any transient target is set (a transient analysis is
        needed to judge this spec)."""
        return any(getattr(self, name) is not None for name in _TRAN_FIELDS)

    def tran_targets(self) -> dict[str, float]:
        """The transient targets that are set, keyed by field name."""
        return {
            name: getattr(self, name)
            for name in _TRAN_FIELDS
            if getattr(self, name) is not None
        }

    # ------------------------------------------------------------------
    def ac_satisfied(self, metrics: PerformanceMetrics, rel_tol: float = 0.0) -> bool:
        """True when the AC triple is resolvable and meets its targets.

        The AC half of :meth:`satisfied`, and the gate Stage IV puts in
        front of the transient: a design failing it fails the spec
        whatever its step response, so its transient is never run.
        """
        return (
            metrics.is_valid()
            and metrics.gain_db >= self.gain_db * (1.0 - rel_tol)
            and metrics.f3db_hz >= self.f3db_hz * (1.0 - rel_tol)
            and metrics.ugf_hz >= self.ugf_hz * (1.0 - rel_tol)
        )

    def satisfied(self, metrics: PerformanceMetrics, rel_tol: float = 0.0) -> bool:
        """True when every measured metric meets its target.

        ``rel_tol`` loosens each target by a relative fraction (useful for
        "within 1%" success accounting): minimum targets are lowered,
        maximum targets raised.  Transient targets are judged only when
        set; a set target whose metric was never measured (``None``) or is
        non-finite fails.
        """
        if not self.ac_satisfied(metrics, rel_tol):
            return False
        for name, direction in _TRAN_FIELDS.items():
            target = getattr(self, name)
            if target is None:
                continue
            value = getattr(metrics, name)
            if value is None or not math.isfinite(value):
                return False
            if direction == "min":
                if value < target * (1.0 - rel_tol):
                    return False
            elif value > target * (1.0 + rel_tol):
                return False
        return True

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
        def shortfall(target: float, value: float | None) -> float:
            if value is None or not (value == value):  # None or NaN
                return 1.0
            return max(0.0, (target - value) / target)

        def excess(target: float, value: float | None) -> float:
            if value is None or not (value == value):
                return 1.0
            return min(1.0, max(0.0, (value - target) / target))

        misses = {
            "gain_db": shortfall(self.gain_db, metrics.gain_db),
            "f3db_hz": shortfall(self.f3db_hz, metrics.f3db_hz),
            "ugf_hz": shortfall(self.ugf_hz, metrics.ugf_hz),
        }
        for name, direction in _TRAN_FIELDS.items():
            target = getattr(self, name)
            if target is None:
                continue
            value = getattr(metrics, name)
            misses[name] = (
                shortfall(target, value) if direction == "min" else excess(target, value)
            )
        return misses

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
        """Spec targeting a measured design's metrics (optionally derated).

        ``slack`` derates each target by a relative fraction, which makes
        achievable validation specs from held-out designs: minimum targets
        are lowered, maximum targets (settling, overshoot) raised.
        Transient targets are adopted only when the metrics carry them
        (and, for max targets, only when positive -- a perfectly monotone
        0.0 overshoot cannot be a positive ceiling).
        """
        kwargs = {}
        for name, direction in _TRAN_FIELDS.items():
            value = getattr(metrics, name)
            if value is None or not math.isfinite(value):
                continue
            derated = value * (1.0 - slack) if direction == "min" else value * (1.0 + slack)
            if derated > 0:
                kwargs[name] = derated
        return cls(
            gain_db=metrics.gain_db * (1.0 - slack),
            f3db_hz=metrics.f3db_hz * (1.0 - slack),
            ugf_hz=metrics.ugf_hz * (1.0 - slack),
            **kwargs,
        )
