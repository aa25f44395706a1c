"""Error-bounded lossy compression substrate.

The public surface mirrors what the paper uses:

* :class:`ErrorBound` / :class:`ErrorBoundMode` — absolute or
  value-range-relative error bounds.
* :func:`create_compressor` / :func:`available_compressors` — the
  compressor registry (``sz3``, ``sz3-linear``, ``sz2``, ``sz-lorenzo``,
  ``zfp-like`` plus fast variants).
* :class:`Compressor` / :class:`CompressionResult` / :class:`CompressedBlob`
  — the compressor interface, measured statistics and the serialised
  blob format transferred between endpoints.
"""

from __future__ import annotations

from .blocking import BlockPlan, BlockSpec, normalize_block_shape
from .errorbound import ErrorBound, ErrorBoundMode
from .interface import (
    CompressedBlob,
    CompressionResult,
    CompressionStats,
    Compressor,
    SectionContainer,
)
from .quantizer import LinearQuantizer, QuantizationResult
from .registry import (
    available_compressors,
    compressor_type_id,
    create_blocked_compressor,
    create_compressor,
    register_compressor,
)
from .sz import PipelineConfig

__all__ = [
    "BlockPlan",
    "BlockSpec",
    "normalize_block_shape",
    "ErrorBound",
    "ErrorBoundMode",
    "Compressor",
    "CompressedBlob",
    "CompressionResult",
    "CompressionStats",
    "SectionContainer",
    "LinearQuantizer",
    "QuantizationResult",
    "available_compressors",
    "create_compressor",
    "create_blocked_compressor",
    "register_compressor",
    "compressor_type_id",
    "PipelineConfig",
]
