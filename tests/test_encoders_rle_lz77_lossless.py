"""Tests for the LZ77 and lossless backend encoders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.encoders.lossless import (
    DeflateBackend,
    LZ77Backend,
    RawBackend,
    get_lossless_backend,
)
from repro.compression.encoders.lz77 import LZ77Codec
from repro.errors import ConfigurationError, EncodingError


class TestLZ77:
    def test_round_trip_repetitive_data(self):
        data = b"abcabcabcabc" * 100
        codec = LZ77Codec()
        assert codec.decode(codec.encode(data)) == data

    def test_round_trip_random_data(self):
        data = bytes(np.random.default_rng(0).integers(0, 256, 2000, dtype=np.uint8))
        codec = LZ77Codec()
        assert codec.decode(codec.encode(data)) == data

    def test_empty_input(self):
        codec = LZ77Codec()
        assert codec.decode(codec.encode(b"")) == b""

    def test_repetitive_data_is_smaller_than_tokens_of_random(self):
        codec = LZ77Codec()
        repetitive = codec.encode(b"x" * 5000)
        random_bytes = bytes(np.random.default_rng(1).integers(0, 256, 5000, dtype=np.uint8))
        random = codec.encode(random_bytes)
        assert len(repetitive) < len(random)

    def test_invalid_window_raises(self):
        with pytest.raises(EncodingError):
            LZ77Codec(window_size=0)

    def test_truncated_payload_raises(self):
        with pytest.raises(EncodingError):
            LZ77Codec().decode(b"\x01")

    def test_overlapping_match_round_trip(self):
        # offset < length exercises the pattern-replication decode branch
        # (the RLE case the old decoder copied one byte at a time).
        codec = LZ77Codec()
        for period in (1, 2, 3, 7):
            data = bytes(range(period)) * 500 + b"tail"
            assert codec.decode(codec.encode(data)) == data

    def test_match_to_end_of_input_round_trip(self):
        codec = LZ77Codec()
        data = b"prefix--" + b"ab" * 40  # match runs to the very end
        assert codec.decode(codec.encode(data)) == data

    def test_literal_runs_round_trip(self):
        # Long stretches of match-free data take the bulk literal-copy path.
        rng = np.random.default_rng(5)
        data = bytes(rng.integers(0, 256, 5000, dtype=np.uint8))
        codec = LZ77Codec()
        assert codec.decode(codec.encode(data)) == data

    def test_prefix_index_is_bounded(self):
        # A degenerate input maps every position to the same 3-gram; the
        # candidate lists must stay capped instead of growing with n.
        codec = LZ77Codec(max_candidates=16)
        data = b"a" * 50000
        assert codec.decode(codec.encode(data)) == data

    def test_invalid_max_candidates_raises(self):
        with pytest.raises(EncodingError):
            LZ77Codec(max_candidates=0)

    def test_bounded_candidates_preserve_round_trip(self):
        rng = np.random.default_rng(6)
        chunks = [bytes(rng.integers(0, 4, 64, dtype=np.uint8)) for _ in range(40)]
        data = b"".join(chunks * 3)
        tight = LZ77Codec(max_candidates=2)
        loose = LZ77Codec(max_candidates=256)
        assert tight.decode(tight.encode(data)) == data
        assert loose.decode(loose.encode(data)) == data


class TestLosslessBackends:
    @pytest.mark.parametrize("name", ["deflate", "raw", "lz77"])
    def test_round_trip(self, name):
        backend = get_lossless_backend(name)
        data = b"scientific data " * 200
        assert backend.decompress(backend.compress(data)) == data

    def test_deflate_reduces_repetitive_payload(self):
        backend = DeflateBackend()
        data = b"\x00" * 10000
        assert len(backend.compress(data)) < 200

    def test_raw_backend_is_identity(self):
        backend = RawBackend()
        assert backend.compress(b"abc") == b"abc"

    def test_lz77_backend_round_trip(self):
        backend = LZ77Backend()
        data = b"ababab" * 50
        assert backend.decompress(backend.compress(data)) == data

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            get_lossless_backend("zstd")

    def test_invalid_deflate_level_raises(self):
        with pytest.raises(ConfigurationError):
            DeflateBackend(level=99)

    def test_deflate_corrupt_payload_raises(self):
        with pytest.raises(EncodingError):
            DeflateBackend().decompress(b"not deflate data")
