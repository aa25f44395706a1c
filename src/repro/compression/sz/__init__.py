"""SZ-style prediction-based compression pipelines."""

from __future__ import annotations

from .pipeline import PredictionPipelineCompressor, PipelineConfig

__all__ = ["PredictionPipelineCompressor", "PipelineConfig"]
