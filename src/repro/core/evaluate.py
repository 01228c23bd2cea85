"""Evaluation utilities: correlations, sizing studies, runtime accounting.

Regenerates the paper's evaluation quantities:

* Fig. 7 scatter data and Tables II/IV/VI -- correlation coefficients
  between transformer-predicted device parameters and the validation
  (simulation-based) values, per device group and parameter;
* Tables III/V/VII -- target-vs-optimized metrics via the full flow;
* Table VIII -- success-rate and runtime statistics of a sizing study,
  read from the :class:`~repro.service.SizingResponse` objects the
  engine answers with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..datagen.dataset import DesignRecord
from ..topologies import OTATopology
from .bundle import SizingModel
from .specs import DesignSpec

if TYPE_CHECKING:  # repro.service builds on repro.core
    from ..service import SizingResponse

__all__ = [
    "PredictionSet",
    "predict_over_records",
    "correlation_table",
    "SizingStudy",
    "run_sizing_study",
]

PARAM_KEYS = ("gm", "gds", "cds", "cgs")


@dataclass
class PredictionSet:
    """Aligned predicted/desired device parameters over validation designs.

    ``predicted[group][param]`` and ``desired[group][param]`` are equal-
    length lists; designs whose decoded output was unparseable are skipped
    and counted in ``parse_failures``.
    """

    topology_name: str
    predicted: dict[str, dict[str, list[float]]]
    desired: dict[str, dict[str, list[float]]]
    parse_failures: int = 0
    total: int = 0

    def arrays(self, group: str, param: str) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self.desired[group][param]),
            np.asarray(self.predicted[group][param]),
        )


def predict_over_records(
    model: SizingModel,
    topology: OTATopology,
    records: Sequence[DesignRecord],
    batch_size: int = 32,
) -> PredictionSet:
    """Run inference for every record's specs; align with true parameters.

    This is the paper's validation protocol: the encoder sequence is built
    from the held-out design's *measured* metrics, so the recorded device
    parameters are a ground-truth the prediction should match (Fig. 7).
    Inference runs in batches of ``batch_size`` through the batched
    decoder (see :meth:`SizingModel.predict_params_many` on its parity
    with the sequential path).
    """
    groups = [g.name for g in topology.groups]
    predicted = {g: {p: [] for p in PARAM_KEYS} for g in groups}
    desired = {g: {p: [] for p in PARAM_KEYS} for g in groups}
    failures = 0
    for start in range(0, len(records), max(1, batch_size)):
        chunk = records[start : start + max(1, batch_size)]
        specs = [DesignSpec(r.gain_db, r.f3db_hz, r.ugf_hz) for r in chunk]
        outputs = model.predict_params_many({topology.name: specs})[topology.name]
        for record, (parsed, _) in zip(chunk, outputs, strict=True):
            if not parsed.complete:
                failures += 1
                continue
            for group in groups:
                for param in PARAM_KEYS:
                    predicted[group][param].append(parsed.values[group][param])
                    desired[group][param].append(record.device_params[group][param])
    return PredictionSet(
        topology_name=topology.name,
        predicted=predicted,
        desired=desired,
        parse_failures=failures,
        total=len(records),
    )


def correlation_table(predictions: PredictionSet) -> dict[str, dict[str, float]]:
    """Pearson correlation per (device group, parameter) -- Tables II/IV/VI."""
    table: dict[str, dict[str, float]] = {}
    for group, params in predictions.predicted.items():
        table[group] = {}
        for param in PARAM_KEYS:
            desired, predicted = predictions.arrays(group, param)
            if len(desired) < 2 or np.std(desired) == 0 or np.std(predicted) == 0:
                table[group][param] = float("nan")
                continue
            table[group][param] = float(np.corrcoef(desired, predicted)[0, 1])
    return table


@dataclass
class SizingStudy:
    """Aggregate outcome of sizing many specs (Table VIII row)."""

    topology_name: str
    results: list[SizingResponse] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def single_iteration_successes(self) -> int:
        return sum(1 for r in self.results if r.single_simulation)

    @property
    def multi_iteration_successes(self) -> int:
        return sum(1 for r in self.results if r.success and not r.single_simulation)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.results if not r.success)

    @property
    def success_rate(self) -> float:
        return (self.total - self.failures) / max(self.total, 1)

    def average_time(self, multi_only: bool = False) -> float:
        if multi_only:
            times = [r.wall_time_s for r in self.results if r.success and not r.single_simulation]
        else:
            times = [r.wall_time_s for r in self.results if r.single_simulation]
        return float(np.mean(times)) if times else float("nan")

    def average_iterations_multi(self) -> float:
        iterations = [
            r.iterations for r in self.results if r.success and not r.single_simulation
        ]
        return float(np.mean(iterations)) if iterations else float("nan")

    def average_spice_simulations(self) -> float:
        return float(np.mean([r.spice_simulations for r in self.results]))


def run_sizing_study(
    engine,
    topology_name: str,
    specs: Sequence[DesignSpec],
    max_iterations: int = 6,
    rel_tol: float = 0.0,
) -> SizingStudy:
    """Size every spec with a :class:`~repro.service.SizingEngine` and
    collect Table VIII statistics.

    Runs through ``engine.size_batch``, so every copilot round fuses
    all still-active specs into one greedy decode; per-spec responses are
    bit-identical to sizing each spec alone.  An engine with a result
    cache answers a repeated spec from it.
    """
    # Local import: repro.service builds on repro.core.
    from ..service.requests import SizingRequest

    requests = [
        SizingRequest(
            topology=topology_name, spec=spec, max_iterations=max_iterations, rel_tol=rel_tol
        )
        for spec in specs
    ]
    return SizingStudy(topology_name=topology_name, results=engine.size_batch(requests))
