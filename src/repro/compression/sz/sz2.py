"""SZ2-style compressor.

SZ2 combines a Lorenzo predictor with a block-wise linear-regression
predictor.  This reproduction exposes the regression pipeline as ``sz2``
(the regression stage is the distinguishing component of SZ2 relative to
SZ1.4/Lorenzo-only compressors); the Lorenzo-only pipeline is available
separately as ``sz-lorenzo`` and is used by the Lorenzo-variant ablation.
"""

from __future__ import annotations

from typing import Any, Optional

from ..predictors.regression import RegressionPredictor
from .pipeline import PipelineConfig, PredictionPipelineCompressor

__all__ = ["SZ2Compressor"]


class SZ2Compressor(PredictionPipelineCompressor):
    """Block-regression prediction pipeline (SZ2-style).

    ``block_size`` is the regression predictor's fit window; the
    ``block_shape`` block option (when set) is the coarser chunk grid the
    pipeline encodes independently and in parallel.
    """

    name = "sz2"

    def __init__(
        self,
        block_size: int = 8,
        config: Optional[PipelineConfig] = None,
        **block_options: Any,
    ) -> None:
        super().__init__(
            predictor=RegressionPredictor(block_size=block_size),
            config=config,
            **block_options,
        )
