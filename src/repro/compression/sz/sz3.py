"""SZ3-style compressors.

``SZ3Compressor`` is the default SZ-interp pipeline (multi-level cubic
interpolation predictor), which the paper adopts for its evaluation;
``SZ3LorenzoCompressor`` is the Lorenzo pipeline variant used in
ablations and as the feature-extraction reference.
"""

from __future__ import annotations

from typing import Any, Optional

from ..predictors.interpolation import InterpolationPredictor
from ..predictors.lorenzo import LorenzoPredictor
from .pipeline import PipelineConfig, PredictionPipelineCompressor

__all__ = ["SZ3Compressor", "SZ3LorenzoCompressor"]


class SZ3Compressor(PredictionPipelineCompressor):
    """Multi-level interpolation prediction pipeline (SZ3 / SZ-interp)."""

    name = "sz3"

    def __init__(
        self,
        order: str = "cubic",
        config: Optional[PipelineConfig] = None,
        **block_options: Any,
    ) -> None:
        super().__init__(
            predictor=InterpolationPredictor(order=order),
            config=config,
            name=self.name if order == "cubic" else f"sz3-{order}",
            **block_options,
        )


class SZ3LorenzoCompressor(PredictionPipelineCompressor):
    """Lorenzo prediction pipeline (decoupled Lorenzo variant)."""

    name = "sz-lorenzo"

    def __init__(self, config: Optional[PipelineConfig] = None, **block_options: Any) -> None:
        super().__init__(predictor=LorenzoPredictor(), config=config, **block_options)
