"""The paper's primary contribution: the end-to-end sizing flow."""

from .bundle import SizingModel
from .pipeline import PipelineArtifacts, PipelineConfig, train_sizing_model
from .evaluate import (
    PredictionSet,
    SizingStudy,
    correlation_table,
    predict_over_records,
    run_sizing_study,
)
from .flow import IterationTrace, SizingResult
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
    "IterationTrace",
    "SizingResult",
    "ParasiticEstimate",
    "evaluate_with_parasitics",
    "tighten_spec",
    "DesignSpec",
]
