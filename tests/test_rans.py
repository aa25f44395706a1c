"""Unit and edge-case tests for the interleaved rANS entropy coder.

Covers the frequency model's corners (single-symbol alphabets, skew far
past the 12-bit quantisation resolution, alphabets too large for a
table), the codec's round-trip contract across stream shapes, the
lockstep batch decode (equal to decoding each stream alone, and failing
whole on any corrupt member), and the
pipeline-level fallback: a block whose alphabet cannot fit a rANS table
must degrade to Huffman *inside* a rans-configured pipeline and say so
in its per-block codec tag.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.compression import ErrorBound, create_blocked_compressor
from repro.compression.encoders.huffman import symbol_frequencies
from repro.compression.encoders.rans import (
    MAX_TABLE_SYMBOLS,
    PROB_SCALE,
    RansCodec,
    RansFrequencyTable,
    quantize_frequencies,
)
from repro.errors import EncodingError

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _symbol_streams() -> st.SearchStrategy[np.ndarray]:
    """Streams spanning the codec's regimes.

    Small random alphabets (typical quantiser output), constant runs
    (single-symbol tables), wide-range sparse alphabets (searchsorted
    encode path), heavy skew, and lengths around the interleaving
    boundaries (0, 1, < lanes, and >> lanes symbols).
    """
    small = st.lists(st.integers(-40, 40), min_size=0, max_size=5000).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    )
    constant = st.tuples(st.integers(-(2**31), 2**31), st.integers(1, 3000)).map(
        lambda t: np.full(t[1], t[0], dtype=np.int64)
    )
    sparse = st.lists(
        st.sampled_from([-(2**30), -7, 0, 1, 9999, 2**30]),
        min_size=1,
        max_size=2000,
    ).map(lambda xs: np.asarray(xs, dtype=np.int64))
    skewed = st.integers(1, 2000).map(
        lambda n: np.concatenate(
            [np.zeros(n * 50, dtype=np.int64), np.arange(1, 4, dtype=np.int64)]
        )
    )
    return st.one_of(small, constant, sparse, skewed)


class TestQuantiseFrequencies:
    def test_sums_to_prob_scale(self):
        quant = quantize_frequencies(np.array([3, 1, 7, 2]))
        assert int(quant.sum()) == PROB_SCALE

    def test_single_symbol_takes_whole_scale(self):
        quant = quantize_frequencies(np.array([123456789]))
        assert quant.tolist() == [PROB_SCALE]

    def test_extreme_skew_keeps_rare_symbols_alive(self):
        """Counts skewed far past the 12-bit resolution: the rare symbols
        must keep frequency >= 1 or they become unencodable."""
        counts = np.array([10**12, 1, 1, 1])
        quant = quantize_frequencies(counts)
        assert int(quant.sum()) == PROB_SCALE
        assert int(quant.min()) >= 1
        assert int(quant[0]) == PROB_SCALE - 3

    def test_uniform_full_alphabet(self):
        """Exactly MAX_TABLE_SYMBOLS symbols leaves frequency 1 each."""
        quant = quantize_frequencies(np.ones(MAX_TABLE_SYMBOLS, dtype=np.int64))
        assert quant.tolist() == [1] * MAX_TABLE_SYMBOLS

    def test_oversized_alphabet_rejected(self):
        with pytest.raises(EncodingError):
            quantize_frequencies(np.ones(MAX_TABLE_SYMBOLS + 1, dtype=np.int64))

    def test_empty_and_nonpositive_rejected(self):
        with pytest.raises(EncodingError):
            quantize_frequencies(np.array([], dtype=np.int64))
        with pytest.raises(EncodingError):
            quantize_frequencies(np.array([3, 0]))


class TestFrequencyTable:
    def test_serialise_round_trip(self):
        table = RansFrequencyTable.from_frequencies({-5: 7, 0: 100, 12345: 3})
        restored = RansFrequencyTable.deserialize(table.serialize())
        assert np.array_equal(restored.symbols, table.symbols)
        assert np.array_equal(restored.freqs, table.freqs)

    def test_alphabet_too_large_returns_none(self):
        frequencies = {i: 1 for i in range(MAX_TABLE_SYMBOLS + 1)}
        assert RansFrequencyTable.try_from_frequencies(frequencies) is None

    def test_span_too_wide_returns_none(self):
        assert RansFrequencyTable.try_from_frequencies({0: 1, 1 << 32: 1}) is None

    def test_truncated_table_rejected(self):
        table = RansFrequencyTable.from_frequencies({0: 1, 1: 1})
        with pytest.raises(EncodingError):
            RansFrequencyTable.deserialize(table.serialize()[:-1])

    def test_gather_escape_on_unknown_symbol(self):
        table = RansFrequencyTable.from_frequencies({0: 1, 4: 1})
        assert table.gather_freq_cum(np.array([0, 2], dtype=np.int64)) is None
        assert table.gather_freq_cum(np.array([0, 99], dtype=np.int64)) is None


class TestRansCodecRoundTrip:
    @_SETTINGS
    @given(stream=_symbol_streams())
    def test_round_trips_exactly(self, stream: np.ndarray):
        codec = RansCodec()
        payload, table_bytes, count = codec.encode(stream)
        assert count == stream.size
        decoded = codec.decode(payload, table_bytes, count)
        assert np.array_equal(decoded, stream)

    def test_empty_stream(self):
        codec = RansCodec()
        payload, table_bytes, count = codec.encode(np.array([], dtype=np.int64))
        assert (payload, table_bytes, count) == (b"", b"", 0)
        assert codec.decode(payload, table_bytes, count).size == 0

    def test_single_symbol_stream_is_tiny(self):
        """A constant stream carries ~zero information: the payload is
        just the header plus the lane states, no words."""
        codec = RansCodec()
        stream = np.full(10_000, 42, dtype=np.int64)
        payload, table_bytes, count = codec.encode(stream)
        assert np.array_equal(codec.decode(payload, table_bytes, count), stream)
        # Header + lane states only: the sole symbol has probability 1,
        # so every encode step is a no-op and zero words are emitted.
        assert len(payload) <= 16 + 4 * 1024

    def test_full_16bit_alphabet_has_no_table(self):
        """All 65536 quantiser symbols present: no 12-bit table fits, so
        encode raises and no table can be built."""
        stream = np.arange(1 << 16, dtype=np.int64)
        codec = RansCodec()
        with pytest.raises(EncodingError):
            codec.encode(stream)
        assert RansFrequencyTable.try_from_frequencies(dict.fromkeys(range(1 << 16), 1)) is None

    def test_shared_table_escape_returns_none(self):
        codec = RansCodec()
        table = RansFrequencyTable.from_frequencies({1: 10, 2: 5})
        assert codec.encode_with_table(np.array([1, 2, 3], dtype=np.int64), table) is None

    def test_corrupt_payload_rejected(self):
        codec = RansCodec()
        payload, table_bytes, count = codec.encode(np.arange(512, dtype=np.int64) % 17)
        corrupt = bytearray(payload)
        corrupt[-1] ^= 0xFF
        with pytest.raises(EncodingError):
            codec.decode(bytes(corrupt), table_bytes, count)
        with pytest.raises(EncodingError):
            codec.decode(payload, table_bytes, count + 1)


@st.composite
def _batches(draw) -> List[Tuple[bytes, bytes, int]]:
    """1-12 encoded streams of mixed lengths (so mixed lane and round
    counts), empty ones included, each coded with its own table or with
    one table pooled over the batch.  Half the batches are resized to
    lengths ``n`` and ``2n``, so several streams share a round count."""
    streams = draw(st.lists(_symbol_streams(), min_size=1, max_size=12))
    shared = draw(st.lists(st.booleans(), min_size=len(streams), max_size=len(streams)))
    n = min((s.size for s in streams if s.size), default=0)
    if n and draw(st.booleans()):
        streams = [np.resize(s, n << (i % 2)) if s.size else s for i, s in enumerate(streams)]
    codec = RansCodec()
    pooled = np.concatenate(streams)
    table = RansFrequencyTable.try_from_frequencies(symbol_frequencies(pooled))
    batch = []
    for stream, use_shared in zip(streams, shared):
        if use_shared and table is not None and stream.size:
            payload = codec.encode_with_table(stream, table)
            batch.append((payload, table.serialize(), int(stream.size)))
        else:
            batch.append(codec.encode(stream))
    return batch


class TestRansBatchDecode:
    @_SETTINGS
    @given(batch=_batches())
    def test_batch_equals_per_stream_decode(self, batch):
        codec = RansCodec()
        decoded = codec.decode_streams(batch)
        assert len(decoded) == len(batch)
        for triple, symbols in zip(batch, decoded):
            assert np.array_equal(symbols, codec.decode(*triple))
            assert symbols.dtype == np.int64 and symbols.size == triple[2]

    @_SETTINGS
    @given(batch=_batches(), data=st.data())
    def test_a_corrupt_stream_anywhere_fails_the_batch(self, batch, data):
        coded = [i for i, (_, _, count) in enumerate(batch) if count]
        assume(coded)
        victim = data.draw(st.sampled_from(coded))
        payload, table_bytes, count = batch[victim]
        corrupt = data.draw(
            st.sampled_from(
                [
                    (payload[:-1] + bytes([payload[-1] ^ 0xFF]), table_bytes, count),
                    (payload, table_bytes, count + 1),
                    (payload[:-1], table_bytes, count),
                ]
            )
        )
        codec = RansCodec()
        # Without a checksum a flipped word can land on another valid
        # decode path (about one random stream in 6 000); those are not
        # the batch's to catch.
        try:
            codec.decode(*corrupt)
        except EncodingError:
            pass
        else:
            assume(False)
        batch[victim] = corrupt
        with pytest.raises(EncodingError):
            codec.decode_streams(batch)


class TestPipelineFallback:
    def test_wide_alphabet_block_degrades_to_huffman(self):
        """A rans-configured pipeline hitting a block whose quantised
        alphabet exceeds 4096 symbols must fall back to Huffman for that
        block and record the fallback in its codec tag."""
        rng = np.random.default_rng(11)
        # Wide uniform noise at a small bound: residuals span ~20k
        # quantiser bins (inside the 2^15 bin radius, so no escapes) and
        # each block's 9216 samples hit well over 4096 distinct symbols.
        # Two blocks: a one-block blob leaves ``block_codecs`` unsaid.
        data = rng.uniform(-20.0, 20.0, size=(192, 96)).astype(np.float64)
        compressor = create_blocked_compressor(
            "sz3", block_shape=96, entropy_stage="rans"
        )
        result = compressor.compress(data, ErrorBound(value=1e-3, mode="abs"))
        codecs = result.blob.metadata["block_codecs"]
        assert codecs == {"huffman": 2}
        assert [e["entropy"] for e in result.blob.block_index] == ["huffman", "huffman"]
        recon = compressor.decompress(result.blob)
        assert float(np.abs(recon - data).max()) <= 1e-3
        # One block degrades the same way; its section's own tag is what decodes it.
        one = compressor.compress(data[:96], ErrorBound(value=1e-3, mode="abs")).blob
        assert one.num_blocks == 1 and one.container.header["entropy_stage"] == "rans"
        assert float(np.abs(compressor.decompress(one) - data[:96]).max()) <= 1e-3

    def test_smooth_block_stays_rans(self):
        data = np.add.outer(
            np.sin(np.linspace(0, 3, 128)), np.cos(np.linspace(0, 2, 64))
        ).astype(np.float32)
        compressor = create_blocked_compressor(
            "sz3", block_shape=64, entropy_stage="rans"
        )
        result = compressor.compress(data, ErrorBound(value=1e-3, mode="abs"))
        assert result.blob.metadata["block_codecs"] == {"rans": 2}
        assert result.blob.metadata["entropy_stage"] == "rans"
        recon = compressor.decompress(result.blob)
        assert float(np.abs(recon - data).max()) <= 1e-3
