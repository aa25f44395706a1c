"""Entropy and lossless encoders used by the compression pipelines."""

from __future__ import annotations

from .huffman import (
    MAX_CODE_LENGTH,
    HuffmanCodebook,
    HuffmanCodec,
    huffman_code_lengths,
    length_limited_code_lengths,
    symbol_frequencies,
)
from .lz77 import LZ77Codec
from .lossless import LosslessBackend, DeflateBackend, RawBackend, get_lossless_backend

__all__ = [
    "HuffmanCodec",
    "HuffmanCodebook",
    "MAX_CODE_LENGTH",
    "huffman_code_lengths",
    "length_limited_code_lengths",
    "symbol_frequencies",
    "LZ77Codec",
    "LosslessBackend",
    "DeflateBackend",
    "RawBackend",
    "get_lossless_backend",
]
