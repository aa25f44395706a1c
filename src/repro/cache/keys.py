"""Content-addressed cache keys.

Cache entries are addressed by *what was compressed* and *how*: a
content digest over the raw array bytes (dtype and shape included, so a
float32 field never collides with its float64 twin) plus a canonical
fingerprint of every pipeline knob that changes the compressed output —
compressor name, absolute error bound, block size, codebook mode and
adaptive selection.  Two entries share a key if and only if compressing
would produce the same bytes, which is what lets a warm hit skip the
compress phase without changing the decompressed output.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

__all__ = [
    "array_content_digest",
    "pipeline_fingerprint",
    "blob_cache_key",
    "checksum",
]

#: 128-bit digests: collision-safe at any realistic cache size while
#: keeping key strings (and filenames derived from them) short.
_DIGEST_BYTES = 16


def array_content_digest(data: np.ndarray) -> str:
    """Digest of an array's dtype, shape and raw bytes.

    The dtype/shape prefix means a reshaped or recast view of the same
    buffer gets its own identity — the compressed bytes would differ, so
    the cache key must too.
    """
    arr = np.ascontiguousarray(data)
    h = hashlib.blake2b(digest_size=_DIGEST_BYTES)
    h.update(str(arr.dtype).encode("ascii"))
    h.update(repr(tuple(int(s) for s in arr.shape)).encode("ascii"))
    h.update(arr.data if arr.size else b"")
    return h.hexdigest()


def checksum(data: bytes) -> bytes:
    """blake2b-8 of ``data``: what a top-level blob container stores over its
    header and over each section, to be checked when they are read."""
    return hashlib.blake2b(data, digest_size=8).digest()


def _canonical(value: Any) -> Any:
    """JSON-stable form of a fingerprint field.

    Floats go through ``float.hex()`` so the fingerprint never depends on
    repr rounding, and block shapes normalise to a list of ints.
    """
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def pipeline_fingerprint(
    *,
    compressor: str,
    error_bound_abs: float,
    block_shape: Optional[Union[int, Sequence[int]]] = None,
    codebook_mode: str = "shared",
    adaptive_predictor: bool = False,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Canonical dict of every knob that shapes the compressed bytes."""
    fingerprint: Dict[str, Any] = {
        "compressor": str(compressor),
        "error_bound_abs": _canonical(float(error_bound_abs)),
        "block_shape": _canonical(block_shape) if block_shape is not None else None,
        "codebook_mode": str(codebook_mode),
        "adaptive_predictor": bool(adaptive_predictor),
    }
    for key, value in (extra or {}).items():
        fingerprint[str(key)] = _canonical(value)
    return fingerprint


def blob_cache_key(content_digest: str, fingerprint: Dict[str, Any]) -> str:
    """The cache key of one compressed file of one array."""
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    parts = (b"blob", content_digest.encode("ascii"), canonical.encode("utf-8"))
    return hashlib.blake2b(b"\x00".join(parts), digest_size=_DIGEST_BYTES).hexdigest()
