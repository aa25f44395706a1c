"""Data predictors used by the prediction-based compression pipelines."""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...errors import CompressionError
from .base import Predictor, PredictorOutput
from .lorenzo import LorenzoPredictor
from .regression import RegressionPredictor
from .interpolation import InterpolationPredictor
from ..zfp.transform import BlockTransformPredictor

__all__ = [
    "Predictor", "PredictorOutput", "LorenzoPredictor", "RegressionPredictor",
    "InterpolationPredictor", "create_predictor",
]


def create_predictor(name: str, meta: Optional[Dict[str, Any]] = None) -> Predictor:
    """Instantiate a predictor by name, optionally shaped by encode-time meta.

    A blob records the predictor each block was encoded with; the
    decoder uses this factory to rebuild a matching predictor from the
    block's ``predictor_meta`` (interpolation order, regression/transform
    block size, quantiser bin radius).
    """
    meta = meta or {}
    if name == LorenzoPredictor.name:
        return LorenzoPredictor()
    if name == InterpolationPredictor.name:
        kwargs: Dict[str, Any] = {}
        if "order" in meta:
            kwargs["order"] = meta["order"]
        if "bin_radius" in meta:
            kwargs["bin_radius"] = int(meta["bin_radius"])
        return InterpolationPredictor(**kwargs)
    if name == RegressionPredictor.name:
        kwargs = {}
        if "block_size" in meta:
            kwargs["block_size"] = int(meta["block_size"])
        if "bin_radius" in meta:
            kwargs["bin_radius"] = int(meta["bin_radius"])
        return RegressionPredictor(**kwargs)
    if name == BlockTransformPredictor.name:
        kwargs = {}
        if "block_size" in meta:
            kwargs["block_size"] = int(meta["block_size"])
        return BlockTransformPredictor(**kwargs)
    raise CompressionError(f"unknown predictor {name!r}")
