"""Pluggable lossless back-end stage for the compression pipelines.

The SZ C++ implementations finish with a general-purpose lossless coder
(zstd or gzip).  Here the default is DEFLATE via the standard library's
``zlib``; a raw pass-through backend is also available so pipelines can
be ablated.
"""

from __future__ import annotations

import abc
import zlib

from typing import Any

from ...errors import ConfigurationError, EncodingError

__all__ = [
    "LosslessBackend", "DeflateBackend", "RawBackend", "get_lossless_backend", "stored_backend",
]

#: The zlib level every deflated section is written at.
DEFLATE_LEVEL = 6


class LosslessBackend(abc.ABC):
    """Interface of the final lossless stage."""

    name: str = "abstract"

    @abc.abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress a byte string."""

    @abc.abstractmethod
    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress`."""


class DeflateBackend(LosslessBackend):
    """DEFLATE (zlib) backend — the default dictionary coder."""

    name = "deflate"

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(bytes(data), DEFLATE_LEVEL)

    def decompress(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(bytes(data))
        except zlib.error as exc:
            raise EncodingError(f"deflate decompression failed: {exc}") from exc


class RawBackend(LosslessBackend):
    """Identity backend (no lossless stage)."""

    name = "raw"

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, data: bytes) -> bytes:
        return bytes(data)


_BACKENDS = {
    DeflateBackend.name: DeflateBackend,
    RawBackend.name: RawBackend,
}


def get_lossless_backend(name: str) -> LosslessBackend:
    """Instantiate a lossless backend by name (``deflate``, ``raw``)."""
    try:
        factory = _BACKENDS[name]
    except KeyError as exc:
        valid = ", ".join(sorted(_BACKENDS))
        raise ConfigurationError(
            f"unknown lossless backend {name!r}; expected one of: {valid}"
        ) from exc
    return factory()


def stored_backend(name: Any) -> LosslessBackend:
    """The backend a stored header names; :class:`EncodingError` for any other value
    (``lz77`` included: that codec is gone, so blobs that name it no longer decode)."""
    if not isinstance(name, str) or name not in _BACKENDS:
        raise EncodingError(f"blob names lossless backend {name!r}, which this build cannot read")
    return _BACKENDS[name]()
