"""Serializable sizing requests and responses.

The JSON schemas are deliberately flat and stable — they are the wire
format of the ``python -m repro size`` CLI and the unit tests pin the
round trip:

Request line::

    {"id": "req-000001", "topology": "5T-OTA", "gain_db": 25.0,
     "f3db_hz": 5e6, "ugf_hz": 8e7, "max_iterations": 6, "rel_tol": 0.0,
     "method": "copilot", "budget": null, "corners": ["tt", "ss", "ff"]}

``method`` names the sizing method: the default ``"copilot"`` runs the
transformer flow, any registered solver (``repro.solvers``:
``"sa"``/``"pso"``/``"de"``) runs a SPICE-in-the-loop baseline.
``budget`` caps the solver's SPICE evaluations (for the copilot:
verification iterations); ``null`` selects the per-method default
(``max_iterations`` for the copilot).  A request runs inside one
``size_batch`` call, so both are bounded at ten times their defaults.

``corners`` selects the PVT evaluation contexts: preset names
(``"tt"``/``"ss"``/``"ff"``) or explicit override objects (e.g.
``{"process": "ss", "vdd_scale": 1.0}``, see
:func:`repro.devices.resolve_corner`).  An empty/absent list is the
nominal single-corner flow, bit-identical to the pre-corner service.
With corners, a request succeeds only when the sized design meets the
spec at **every** corner (worst-case semantics).

Transient (step-response) targets are optional spec fields:
``slew_v_per_s`` (minimum slew rate), ``settling_time_s`` (maximum
settling time) and ``overshoot_frac`` (maximum overshoot).  ``analyses``
selects the measurement pipeline (``["dc", "ac"]`` default,
``["dc", "ac", "tran"]`` adds the transient); a request with transient
targets automatically pulls ``"tran"`` in.  Absent transient keys keep
the request bit-identical to the pre-transient wire format.

Response line::

    {"request_id": "req-000001", "topology": "5T-OTA", "method": "copilot",
     "success": true, "widths": {"M1": 1.2e-06, ...},
     "metrics": {"gain_db": 25.3, "f3db_hz": 5.4e6, "ugf_hz": 9.1e7},
     "iterations": 1, "spice_simulations": 1, "wall_time_s": 0.21,
     "cached": false, "error": null, "decoded_texts": ["gmM1=..."],
     "corner_metrics": {"tt": {...}, "ss": {...}}, "worst_corner": "ss"}

On corner-aware requests ``metrics`` is the binding worst corner's
measurement, ``corner_metrics`` maps every corner name to its metrics and
``worst_corner`` names the binding corner; all three stay ``null``-free of
corner keys on nominal requests.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from collections.abc import Mapping
from typing import Any

from ..core.specs import DesignSpec
from ..devices import Corner, resolve_corners
from ..solvers import DEFAULT_BUDGET
from ..spice import TRAN_METRIC_NAMES, PerformanceMetrics
from ..topologies import DEFAULT_ANALYSES, analyses_for_spec

__all__ = ["IterationTrace", "SizingRequest", "SizingResponse"]

#: Most copilot rounds one request may ask for (``max_iterations``, or a
#: copilot ``budget``) and most SPICE evaluations of a solver ``budget``:
#: ten times each default.
MAX_ITERATIONS = 60
MAX_SOLVER_BUDGET = 10 * DEFAULT_BUDGET


def _metrics_json(metrics: PerformanceMetrics | None) -> dict[str, Any] | None:
    """Flat JSON form of one metrics bundle (non-finite values -> null).

    Transient metric keys appear only when measured, so AC-only responses
    keep the pre-transient payload byte-identical.
    """
    if metrics is None:
        return None

    def finite(value: float) -> float | None:
        return value if math.isfinite(value) else None

    payload = {
        "gain_db": finite(metrics.gain_db),
        "f3db_hz": finite(metrics.f3db_hz),
        "ugf_hz": finite(metrics.ugf_hz),
    }
    for name in TRAN_METRIC_NAMES:
        value = getattr(metrics, name)
        if value is not None:
            payload[name] = finite(value)
    return payload


def _metrics_from_json(payload: Mapping[str, Any] | None) -> PerformanceMetrics | None:
    if payload is None:
        return None

    def value(key: str) -> float:
        raw = payload[key]
        return float("nan") if raw is None else float(raw)

    kwargs = {}
    for name in TRAN_METRIC_NAMES:
        if name in payload:
            kwargs[name] = value(name)
    return PerformanceMetrics(
        value("gain_db"), value("f3db_hz"), value("ugf_hz"), **kwargs
    )

_request_ids = itertools.count(1)


def _next_request_id() -> str:
    return f"req-{next(_request_ids):06d}"


@dataclass(frozen=True)
class SizingRequest:
    """One unit of sizing work: a topology name plus minimum targets.

    ``corners`` is the PVT corner axis: entries may be preset names,
    override mappings or :class:`~repro.devices.Corner` objects and are
    normalized to resolved corners at construction.  Empty (the default)
    means the nominal single-corner flow; non-empty requests succeed only
    when the design meets spec at every listed corner.

    ``analyses`` selects the measurement pipeline and is normalized to
    its canonical tuple at construction; a spec with transient targets
    automatically pulls ``"tran"`` in, so such a request can never be
    silently judged without the measurement it depends on.
    """

    topology: str
    spec: DesignSpec
    id: str = field(default_factory=_next_request_id)
    max_iterations: int = 6
    rel_tol: float = 0.0
    method: str = "copilot"
    budget: int | None = None
    corners: tuple[Corner, ...] = ()
    analyses: tuple[str, ...] = DEFAULT_ANALYSES

    def __post_init__(self) -> None:
        if not self.topology or not isinstance(self.topology, str):
            raise ValueError("topology must be a non-empty string")
        if not self.id or not isinstance(self.id, str):
            raise ValueError("request id must be a non-empty string")
        if not 0 <= self.max_iterations <= MAX_ITERATIONS:
            raise ValueError(f"max_iterations must be between 0 and {MAX_ITERATIONS}")
        if not (0.0 <= self.rel_tol < 1.0):
            raise ValueError("rel_tol must be in [0, 1)")
        if not self.method or not isinstance(self.method, str):
            raise ValueError("method must be a non-empty string")
        cap = MAX_ITERATIONS if self.method == "copilot" else MAX_SOLVER_BUDGET
        if self.budget is not None and not 0 <= self.budget <= cap:
            raise ValueError(f"budget of a {self.method} request must be between 0 and {cap}")
        # DesignSpec's positivity check lets NaN and inf through; reject them
        # here, before the request can join (and fail) a batch.
        targets = (
            self.spec.gain_db, self.spec.f3db_hz, self.spec.ugf_hz,
            *self.spec.tran_targets().values(),
        )
        if not all(math.isfinite(value) for value in targets):
            raise ValueError(f"spec targets must be finite: {self.spec}")
        # Normalize corner specifications (names / mappings / Corner
        # objects) to resolved, hashable Corner tuples: the cache key and
        # in-batch coalescing compare them structurally.
        object.__setattr__(self, "corners", resolve_corners(self.corners))
        object.__setattr__(self, "analyses", analyses_for_spec(self.spec, self.analyses))

    @property
    def iteration_budget(self) -> int:
        """Copilot rounds: ``budget`` when given, else ``max_iterations``."""
        return self.max_iterations if self.budget is None else self.budget

    # ------------------------------------------------------------------
    @classmethod
    def for_spec(
        cls,
        topology: str,
        gain_db: float,
        f3db_hz: float,
        ugf_hz: float,
        **kwargs: Any,
    ) -> SizingRequest:
        """Convenience constructor from the three bare spec values."""
        return cls(topology=topology, spec=DesignSpec(gain_db, f3db_hz, ugf_hz), **kwargs)

    def to_json(self) -> dict[str, Any]:
        payload = {
            "id": self.id,
            "topology": self.topology,
            "gain_db": self.spec.gain_db,
            "f3db_hz": self.spec.f3db_hz,
            "ugf_hz": self.spec.ugf_hz,
            "max_iterations": self.max_iterations,
            "rel_tol": self.rel_tol,
            "method": self.method,
            "budget": self.budget,
            "corners": [corner.to_json() for corner in self.corners],
        }
        # Transient spec targets and a non-default analyses selector are
        # emitted only when present, keeping AC-only request lines
        # byte-identical to the pre-transient wire format.
        for name, value in self.spec.tran_targets().items():
            payload[name] = value
        if self.analyses != DEFAULT_ANALYSES:
            payload["analyses"] = list(self.analyses)
        return payload

    def to_json_line(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> SizingRequest:
        """Parse the stable flat schema; extra keys are rejected loudly."""
        known = {
            "id", "topology", "gain_db", "f3db_hz", "ugf_hz",
            "max_iterations", "rel_tol", "method", "budget", "corners",
            "analyses", *TRAN_METRIC_NAMES,
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        missing = {"topology", "gain_db", "f3db_hz", "ugf_hz"} - set(payload)
        if missing:
            raise ValueError(f"missing request fields: {sorted(missing)}")
        spec_kwargs: dict[str, Any] = {}
        for name in TRAN_METRIC_NAMES:
            if payload.get(name) is not None:
                spec_kwargs[name] = float(payload[name])
        spec = DesignSpec(
            gain_db=float(payload["gain_db"]),
            f3db_hz=float(payload["f3db_hz"]),
            ugf_hz=float(payload["ugf_hz"]),
            **spec_kwargs,
        )
        kwargs: dict[str, Any] = {}
        if "id" in payload:
            kwargs["id"] = str(payload["id"])
        if "max_iterations" in payload:
            kwargs["max_iterations"] = int(payload["max_iterations"])
        if "rel_tol" in payload:
            kwargs["rel_tol"] = float(payload["rel_tol"])
        if "method" in payload:
            kwargs["method"] = str(payload["method"])
        if payload.get("budget") is not None:
            kwargs["budget"] = int(payload["budget"])
        if payload.get("corners"):
            kwargs["corners"] = tuple(payload["corners"])
        if payload.get("analyses"):
            kwargs["analyses"] = tuple(payload["analyses"])
        return cls(topology=str(payload["topology"]), spec=spec, **kwargs)

    @classmethod
    def from_json_line(cls, line: str) -> SizingRequest:
        return cls.from_json(json.loads(line))


@dataclass
class IterationTrace:
    """Diagnostics of one copilot iteration."""

    requested_spec: DesignSpec
    decoded_text: str
    parsed_ok: bool
    widths: dict[str, float] | None
    metrics: PerformanceMetrics | None
    satisfied: bool


@dataclass(frozen=True)
class SizingResponse:
    """Outcome of one :class:`SizingRequest`.

    On corner-aware requests ``metrics`` is the binding worst corner's
    measurement, ``corner_metrics`` maps corner names to per-corner
    metrics and ``worst_corner`` names the binding corner (``None`` on
    nominal requests and when no design was measured).

    Transient metrics appear only for a design that met every AC target
    at every corner: Stage IV runs no transient for any other, so a failed
    response whose best iterate missed an AC target carries AC metrics
    only.

    ``trace`` holds one :class:`IterationTrace` per copilot round.  It is
    in-process only: it never reaches the wire, equality ignores it, a
    cache hit carries the trace of the request that computed it, and a
    shard worker's response comes back to the pool without it.
    """

    request_id: str
    topology: str
    success: bool
    widths: dict[str, float] | None
    metrics: PerformanceMetrics | None
    iterations: int
    spice_simulations: int
    wall_time_s: float
    cached: bool = False
    error: str | None = None
    decoded_texts: tuple[str, ...] = ()
    method: str = "copilot"
    corner_metrics: dict[str, PerformanceMetrics] | None = None
    worst_corner: str | None = None
    trace: tuple[IterationTrace, ...] = field(default=(), compare=False, repr=False)

    @property
    def single_simulation(self) -> bool:
        """True when the very first verification already satisfied specs."""
        return self.success and self.spice_simulations == 1

    @classmethod
    def failure(cls, message: str, request: SizingRequest | None = None) -> SizingResponse:
        """A failed response: no design, zero counts, ``error=message``,
        addressed to ``request`` when there is one (a payload that failed
        validation has none).

        Every failure — bad payload, unknown topology or solver, full
        queue, expired deadline, crashed worker — comes back in the same
        schema as a served request, so clients parse one schema for all
        outcomes.
        """
        return cls(
            request_id=request.id if request is not None else "",
            topology=request.topology if request is not None else "",
            method=request.method if request is not None else "copilot",
            success=False,
            widths=None,
            metrics=None,
            iterations=0,
            spice_simulations=0,
            wall_time_s=0.0,
            error=message,
        )

    def with_request_id(self, request_id: str, cached: bool = True) -> SizingResponse:
        """A copy re-addressed to another request (cache/duplicate hits)."""
        return replace(self, request_id=request_id, cached=cached)

    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        corner_metrics = None
        if self.corner_metrics is not None:
            corner_metrics = {
                name: _metrics_json(metrics)
                for name, metrics in self.corner_metrics.items()
            }
        return {
            "request_id": self.request_id,
            "topology": self.topology,
            "method": self.method,
            "success": self.success,
            "widths": dict(self.widths) if self.widths is not None else None,
            "metrics": _metrics_json(self.metrics),
            "iterations": self.iterations,
            "spice_simulations": self.spice_simulations,
            "wall_time_s": self.wall_time_s,
            "cached": self.cached,
            "error": self.error,
            "decoded_texts": list(self.decoded_texts),
            "corner_metrics": corner_metrics,
            "worst_corner": self.worst_corner,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> SizingResponse:
        widths = payload.get("widths")
        corner_payload = payload.get("corner_metrics")
        corner_metrics = None
        if corner_payload is not None:
            corner_metrics = {
                name: _metrics_from_json(entry)
                for name, entry in corner_payload.items()
            }
        worst_corner = payload.get("worst_corner")
        return cls(
            request_id=str(payload["request_id"]),
            topology=str(payload["topology"]),
            success=bool(payload["success"]),
            widths={k: float(v) for k, v in widths.items()} if widths is not None else None,
            metrics=_metrics_from_json(payload.get("metrics")),
            iterations=int(payload["iterations"]),
            spice_simulations=int(payload["spice_simulations"]),
            wall_time_s=float(payload["wall_time_s"]),
            cached=bool(payload.get("cached", False)),
            error=payload.get("error"),
            decoded_texts=tuple(payload.get("decoded_texts", ())),
            method=str(payload.get("method", "copilot")),
            corner_metrics=corner_metrics,
            worst_corner=str(worst_corner) if worst_corner is not None else None,
        )

    @classmethod
    def from_json_line(cls, line: str) -> SizingResponse:
        return cls.from_json(json.loads(line))
