"""ZFP-like transform compressor built on the block-transform predictor."""

from __future__ import annotations

from typing import Any, Optional

from ..sz.pipeline import PipelineConfig, PredictionPipelineCompressor
from .transform import BlockTransformPredictor

__all__ = ["ZFPLikeCompressor"]


class ZFPLikeCompressor(PredictionPipelineCompressor):
    """Transform-based baseline compressor (ZFP-like, fixed-accuracy mode).

    ``block_size`` is the DCT transform block; the ``block_shape`` block
    option (when set) is the coarser chunk grid encoded independently and
    in parallel.
    """

    name = "zfp-like"

    def __init__(
        self,
        block_size: int = 4,
        config: Optional[PipelineConfig] = None,
        **block_options: Any,
    ) -> None:
        super().__init__(
            predictor=BlockTransformPredictor(block_size=block_size),
            config=config,
            **block_options,
        )
