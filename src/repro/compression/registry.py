"""Compressor registry.

Compressors are referenced by name throughout the system — in the
quality predictor's config-based feature (``compressor type``), in Ocelot
configuration, in CLI arguments and in compressed blob headers.  The
registry maps each name to a row: what the one pipeline class predicts
with, entropy-codes with, and is called in its blobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from ..errors import UnknownCompressorError
from .blocking import BlockShapeLike
from .predictors import InterpolationPredictor, LorenzoPredictor, Predictor, RegressionPredictor
from .sz.pipeline import BlockMapper, PipelineConfig, PredictionPipelineCompressor
from .zfp.transform import BlockTransformPredictor

__all__ = [
    "available_compressors", "create_compressor", "create_blocked_compressor",
    "register_compressor", "compressor_type_id",
]


@dataclass(frozen=True)
class _Pipeline:
    """One registry row: every compressor is the one pipeline class, so a
    name only picks the predictor, the entropy stage and the name its
    blobs carry (``sz3-fast`` writes blobs any ``sz3`` reader decodes)."""

    predictor: Callable[..., Predictor]
    entropy_stage: str = "huffman"
    blob_name: Optional[str] = None


_PIPELINES: Dict[str, _Pipeline] = {}


def register_compressor(
    name: str,
    predictor: Callable[..., Predictor],
    entropy_stage: str = "huffman",
    blob_name: Optional[str] = None,
) -> None:
    """Register (or replace) the pipeline built under ``name``."""
    _PIPELINES[name] = _Pipeline(predictor, entropy_stage, blob_name)


def available_compressors() -> List[str]:
    """Names of all registered compressors, sorted."""
    return sorted(_PIPELINES)


def create_compressor(name: str, **predictor_options) -> PredictionPipelineCompressor:
    """Instantiate a compressor by registry name.

    ``predictor_options`` go to the row's predictor (``block_size`` for
    ``sz2`` / ``zfp-like``, ``order`` for ``sz3``).
    """
    try:
        row = _PIPELINES[name]
    except KeyError as exc:
        valid = ", ".join(available_compressors())
        raise UnknownCompressorError(
            f"unknown compressor {name!r}; available: {valid}"
        ) from exc
    compressor = PredictionPipelineCompressor(
        row.predictor(**predictor_options),
        config=PipelineConfig(entropy_stage=row.entropy_stage),
        name=row.blob_name or name,
    )
    compressor.registered_as = name
    return compressor


def create_blocked_compressor(
    name: str,
    block_shape: Optional[BlockShapeLike] = None,
    adaptive_predictor: bool = False,
    block_executor: Optional[BlockMapper] = None,
    shared_codebook: Optional[bool] = None,
    entropy_stage: Optional[str] = None,
    helper_lane=None,
    **kwargs,
) -> PredictionPipelineCompressor:
    """Instantiate a compressor and wire up its block plan and execution.

    The pipeline always gets the block executor (decoding a multi-block
    blob fans out per block whatever this side writes); ``block_shape``
    is the grid it cuts arrays into (unset: one block, the array),
    ``adaptive_predictor`` ranks candidate predictors per block, and
    ``shared_codebook`` toggles the per-file entropy codebook (``None``
    keeps the pipeline's default of sharing).  ``entropy_stage``
    overrides the pipeline's configured entropy codec (``huffman`` /
    ``rans`` / ``none``), which every block is then coded with, and
    ``helper_lane`` deflates and inflates beside the caller.  This is the
    single place the orchestrator and CLI share for this wiring.
    """
    compressor = create_compressor(name, **kwargs)
    if entropy_stage is not None and entropy_stage != compressor.config.entropy_stage:
        compressor.config = PipelineConfig(
            entropy_stage=entropy_stage, lossless_backend=compressor.config.lossless_backend
        )
    compressor.configure_blocks(
        block_executor=block_executor,
        shared_codebook=shared_codebook,
        helper_lane=helper_lane,
    )
    if block_shape:
        compressor.configure_blocks(
            block_shape=block_shape, adaptive_predictor=adaptive_predictor
        )
    return compressor


def compressor_type_id(name: str) -> int:
    """Stable integer id of a compressor name (the ML model's categorical feature)."""
    names = available_compressors()
    try:
        return names.index(name)
    except ValueError as exc:
        raise UnknownCompressorError(f"unknown compressor {name!r}") from exc


# --------------------------------------------------------------------------- #
# Built-in registrations
# --------------------------------------------------------------------------- #
register_compressor("sz3", InterpolationPredictor)
register_compressor("sz3-linear", partial(InterpolationPredictor, order="linear"))
register_compressor("sz2", RegressionPredictor)
register_compressor("sz-lorenzo", LorenzoPredictor)
register_compressor("zfp-like", BlockTransformPredictor)
register_compressor("sz3-fast", InterpolationPredictor, entropy_stage="none", blob_name="sz3")
register_compressor(
    "sz-lorenzo-fast", LorenzoPredictor, entropy_stage="none", blob_name="sz-lorenzo"
)
