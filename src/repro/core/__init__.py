"""The trained sizing model, its training pipeline and evaluation; the
flow that uses it (Stages I-IV) runs in :class:`repro.service.SizingEngine`."""

from .bundle import SizingModel
from .pipeline import PipelineArtifacts, PipelineConfig, train_sizing_model
from .evaluate import (
    PredictionSet,
    SizingStudy,
    correlation_table,
    predict_over_records,
    run_sizing_study,
)
from .layout import ParasiticEstimate, evaluate_with_parasitics
from .margin import tighten_spec
from .specs import DesignSpec

__all__ = [
    "SizingModel",
    "PipelineArtifacts",
    "PipelineConfig",
    "train_sizing_model",
    "PredictionSet",
    "SizingStudy",
    "correlation_table",
    "predict_over_records",
    "run_sizing_study",
    "ParasiticEstimate",
    "evaluate_with_parasitics",
    "tighten_spec",
    "DesignSpec",
]
