"""Compression-quality prediction: the paper's core ML contribution."""

from __future__ import annotations

from .records import QualityRecord, records_to_matrix
from .training import TrainingSetBuilder, build_training_records, train_test_split_records
from .quality_model import QualityPredictor, QualityPrediction
from .baseline import C1BaselineEstimator, ratio_quality_estimate

__all__ = [
    "QualityRecord",
    "records_to_matrix",
    "TrainingSetBuilder",
    "build_training_records",
    "train_test_split_records",
    "QualityPredictor",
    "QualityPrediction",
    "C1BaselineEstimator",
    "ratio_quality_estimate",
]
