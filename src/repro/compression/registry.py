"""Compressor registry.

Compressors are referenced by name throughout the system — in the
quality predictor's config-based feature (``compressor type``), in Ocelot
configuration, in CLI arguments and in compressed blob headers.  The
registry maps those names to factory callables.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError, UnknownCompressorError
from .blocking import BlockShapeLike
from .sz.pipeline import BlockMapper, PipelineConfig, PredictionPipelineCompressor
from .sz.sz2 import SZ2Compressor
from .sz.sz3 import SZ3Compressor, SZ3LorenzoCompressor
from .zfp.zfp import ZFPLikeCompressor

__all__ = [
    "available_compressors",
    "create_compressor",
    "create_blocked_compressor",
    "register_compressor",
    "compressor_type_id",
]

Factory = Callable[..., PredictionPipelineCompressor]
_FACTORIES: Dict[str, Factory] = {}


def register_compressor(name: str, factory: Factory) -> None:
    """Register (or replace) a compressor factory under ``name``."""
    _FACTORIES[name] = factory


def available_compressors() -> List[str]:
    """Names of all registered compressors, sorted."""
    return sorted(_FACTORIES)


def create_compressor(name: str, **kwargs) -> PredictionPipelineCompressor:
    """Instantiate a compressor by registry name.

    Every registered compressor is a prediction pipeline, and this is
    the one place that checks it: the orchestrator, the streaming
    pipeline and the CLI use blocked mode, stage timings and cache
    fingerprints without asking what they hold.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError as exc:
        valid = ", ".join(available_compressors())
        raise UnknownCompressorError(
            f"unknown compressor {name!r}; available: {valid}"
        ) from exc
    compressor = factory(**kwargs)
    if not isinstance(compressor, PredictionPipelineCompressor):
        raise ConfigurationError(
            f"the factory registered as {name!r} built a "
            f"{type(compressor).__name__}, not a PredictionPipelineCompressor"
        )
    compressor.registered_as = name
    return compressor


def create_blocked_compressor(
    name: str,
    block_shape: Optional[BlockShapeLike] = None,
    adaptive_predictor: bool = False,
    block_executor: Optional[BlockMapper] = None,
    shared_codebook: Optional[bool] = None,
    block_cache=None,
    entropy_stage: Optional[str] = None,
    **kwargs,
) -> PredictionPipelineCompressor:
    """Instantiate a compressor and wire up blocked-mode execution.

    The pipeline always gets the block executor (decoding a v2 blob fans
    out per block even when this side does not *produce* blocked blobs);
    ``block_shape`` switches it into producing blocked blobs too,
    ``adaptive_predictor`` ranks candidate predictors per block, and
    ``shared_codebook`` toggles the per-file entropy codebook (``None``
    keeps the pipeline's default of sharing).  ``entropy_stage``
    overrides the pipeline's configured entropy codec (``huffman`` /
    ``rans`` / ``none``), which every block is then coded with.
    ``block_cache`` (a :class:`~repro.cache.BlobCache`) lets blocked
    compression reuse identical self-contained block payloads across
    files, jobs and tenants.  This is the single place the orchestrator
    and CLI share for blocked-mode wiring.
    """
    compressor = create_compressor(name, **kwargs)
    if entropy_stage is not None and entropy_stage != compressor.config.entropy_stage:
        compressor.config = PipelineConfig(
            entropy_stage=entropy_stage,
            lossless_backend=compressor.config.lossless_backend,
            lossless_options=dict(compressor.config.lossless_options),
        )
    compressor.configure_blocks(
        block_executor=block_executor,
        shared_codebook=shared_codebook,
        block_cache=block_cache,
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
register_compressor("sz3", lambda **kw: SZ3Compressor(**kw))
register_compressor(
    "sz3-linear", lambda **kw: SZ3Compressor(order="linear", **kw)
)
register_compressor("sz2", lambda **kw: SZ2Compressor(**kw))
register_compressor("sz-lorenzo", lambda **kw: SZ3LorenzoCompressor(**kw))
register_compressor("zfp-like", lambda **kw: ZFPLikeCompressor(**kw))
register_compressor(
    "sz3-fast",
    lambda **kw: SZ3Compressor(
        config=PipelineConfig(entropy_stage="none", lossless_backend="deflate"), **kw
    ),
)
register_compressor(
    "sz-lorenzo-fast",
    lambda **kw: SZ3LorenzoCompressor(
        config=PipelineConfig(entropy_stage="none", lossless_backend="deflate"), **kw
    ),
)
