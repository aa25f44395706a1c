"""Content-addressed blob cache, shared across jobs and tenants.

The cache sits beside the orchestrator: before the compress phase asks
the batch scheduler for nodes, each staged file's content digest plus a
pipeline fingerprint is looked up in the whole-blob tier — a hit
short-circuits straight to the stored :class:`~repro.compression.CompressedBlob`
bytes, so a repeated hot dataset moves at WAN speed instead of the
pipeline compress rate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .keys import array_content_digest, blob_cache_key, pipeline_fingerprint
from .store import BlobCache, CacheStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import OcelotConfig

__all__ = [
    "BlobCache", "CacheStats", "array_content_digest", "pipeline_fingerprint", "blob_cache_key",
    "build_blob_cache",
]


def build_blob_cache(config: "OcelotConfig") -> Optional[BlobCache]:
    """Open the cache an :class:`OcelotConfig` points at, or ``None``.

    Returns ``None`` when caching is off — callers gate every cache
    interaction on the instance existing, so the off path stays free of
    hashing and disk traffic.
    """
    if config.cache_mode == "off" or not config.cache_dir:
        return None
    return BlobCache(
        config.cache_dir,
        max_bytes=config.cache_max_bytes,
        mode=config.cache_mode,
    )
