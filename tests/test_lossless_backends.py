"""Tests for the lossless backend stage."""

from __future__ import annotations

import zlib

import pytest

from repro.compression.encoders.lossless import (
    DEFLATE_LEVEL,
    DeflateBackend,
    RawBackend,
    get_lossless_backend,
    stored_backend,
)
from repro.errors import ConfigurationError, EncodingError


class TestLosslessBackends:
    @pytest.mark.parametrize("name", ["deflate", "raw"])
    def test_round_trip(self, name):
        backend = get_lossless_backend(name)
        data = b"scientific data " * 200
        assert backend.decompress(backend.compress(data)) == data

    def test_deflate_reduces_repetitive_payload(self):
        backend = DeflateBackend()
        data = b"\x00" * 10000
        assert len(backend.compress(data)) < 200

    def test_deflate_compresses_at_the_fixed_level(self):
        """Blobs stay byte-identical: the level is zlib's default, 6."""
        data = bytes(range(256)) * 40
        assert DEFLATE_LEVEL == 6
        assert DeflateBackend().compress(data) == zlib.compress(data, 6)

    def test_raw_backend_is_identity(self):
        backend = RawBackend()
        assert backend.compress(b"abc") == b"abc"

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            get_lossless_backend("zstd")

    def test_deflate_corrupt_payload_raises(self):
        with pytest.raises(EncodingError):
            DeflateBackend().decompress(b"not deflate data")

    @pytest.mark.parametrize("name", ["lz77", "zstd", None, ["deflate"]])
    def test_a_stored_header_naming_no_backend_is_an_encoding_error(self, name):
        """``lz77`` included: blobs that name the deleted codec fail typed."""
        with pytest.raises(EncodingError, match="cannot read"):
            stored_backend(name)
        assert isinstance(stored_backend("deflate"), DeflateBackend)
