"""Tests for the canonical Huffman codec."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.compression.encoders import huffman, huffman_decode
from repro.compression.encoders.huffman import (
    _DENSE_SPAN_LIMIT,
    MAX_CODE_LENGTH,
    SYNC_INTERVAL,
    Histogram,
    HuffmanCodebook,
    HuffmanCodec,
    HuffmanStream,
    _pack_codes,
    huffman_code_lengths,
    length_limited_code_lengths,
    pooled_symbol_frequencies,
    symbol_frequencies,
)
from repro.errors import EncodingError

from huffman_reference import as_dict, histogram


def lengths_of(frequencies, max_length=None):
    """``{symbol: code length}`` of a ``{symbol: count}`` mapping."""
    h = histogram(frequencies)
    if max_length is None:
        return as_dict(h.symbols, huffman_code_lengths(h))
    return as_dict(h.symbols, length_limited_code_lengths(h, max_length))


def book_of(frequencies, max_length=None):
    return HuffmanCodebook.from_frequencies(histogram(frequencies), max_length)


class TestCodeLengths:
    def test_empty_frequencies(self):
        assert lengths_of({}) == {}

    def test_single_symbol_gets_one_bit(self):
        assert lengths_of({7: 100}) == {7: 1}

    def test_more_frequent_symbols_get_shorter_codes(self):
        lengths = lengths_of({0: 1000, 1: 10, 2: 10, 3: 1})
        assert lengths[0] <= lengths[1]
        assert lengths[1] <= lengths[3]

    def test_kraft_inequality_holds(self):
        freqs = {i: (i + 1) ** 2 for i in range(20)}
        lengths = lengths_of(freqs)
        kraft = sum(2.0 ** -l for l in lengths.values())
        assert kraft <= 1.0 + 1e-9

    def test_uniform_frequencies_give_balanced_code(self):
        freqs = {i: 5 for i in range(8)}
        lengths = lengths_of(freqs)
        assert set(lengths.values()) == {3}


class TestCodebook:
    def test_canonical_codes_are_prefix_free(self):
        freqs = {0: 50, 1: 20, 2: 20, 3: 5, 4: 5}
        book = book_of(freqs)
        codes = [format(c, f"0{n}b") for c, n in zip(book.codes.tolist(), book.lengths.tolist())]
        for i, a in enumerate(codes):
            for j, b in enumerate(codes):
                if i != j:
                    assert not b.startswith(a)

    def test_serialize_round_trip(self):
        freqs = {-3: 4, 0: 100, 7: 9}
        book = book_of(freqs)
        restored = HuffmanCodebook.deserialize(book.serialize())
        np.testing.assert_array_equal(restored.symbols, book.symbols)
        np.testing.assert_array_equal(restored.lengths, book.lengths)
        np.testing.assert_array_equal(restored.codes, book.codes)

    def test_zero_symbol_share_dominant_zero(self):
        freqs = {0: 990, 1: 5, 2: 5}
        book = book_of(freqs)
        share = book.zero_symbol_share(histogram(freqs), zero_symbol=0)
        assert 0.5 < share < 1.0

    def test_zero_symbol_share_no_zero(self):
        freqs = {1: 10, 2: 10}
        book = book_of(freqs)
        assert book.zero_symbol_share(histogram(freqs), zero_symbol=0) == 0.0

    def test_encoded_bit_size_matches_definition(self):
        freqs = {0: 3, 1: 2}
        book = book_of(freqs)
        expected = book.lengths[0] * 3 + book.lengths[1] * 2
        assert book.encoded_bit_size(histogram(freqs)) == expected


class TestCodec:
    def test_round_trip_random_symbols(self):
        rng = np.random.default_rng(0)
        symbols = rng.integers(-50, 50, size=5000)
        codec = HuffmanCodec()
        payload, book, count = codec.encode(symbols)
        decoded = codec.decode(payload, book, count)
        np.testing.assert_array_equal(decoded, symbols)

    def test_round_trip_skewed_symbols(self):
        rng = np.random.default_rng(1)
        symbols = np.where(rng.uniform(size=3000) < 0.9, 0, rng.integers(-5, 5, 3000))
        codec = HuffmanCodec()
        payload, book, count = codec.encode(symbols)
        decoded = codec.decode(payload, book, count)
        np.testing.assert_array_equal(decoded, symbols)

    def test_skewed_input_compresses_better_than_uniform(self):
        rng = np.random.default_rng(2)
        skewed = np.where(rng.uniform(size=4000) < 0.95, 0, rng.integers(-8, 8, 4000))
        uniform = rng.integers(-8, 8, 4000)
        codec = HuffmanCodec()
        skew_size = len(codec.encode(skewed)[0])
        uniform_size = len(codec.encode(uniform)[0])
        assert skew_size < uniform_size

    def test_single_symbol_stream(self):
        codec = HuffmanCodec()
        symbols = np.full(100, 42)
        payload, book, count = codec.encode(symbols)
        decoded = codec.decode(payload, book, count)
        np.testing.assert_array_equal(decoded, symbols)

    def test_empty_stream(self):
        codec = HuffmanCodec()
        payload, book, count = codec.encode(np.array([], dtype=np.int64))
        assert count == 0
        assert codec.decode(payload, book, 0).size == 0

    def test_decode_with_truncated_payload_raises(self):
        codec = HuffmanCodec()
        symbols = np.arange(-20, 20)
        payload, book, count = codec.encode(symbols)
        with pytest.raises(EncodingError):
            codec.decode(payload[: len(payload) // 4], book, count)


def _fibonacci_frequencies(n: int) -> dict:
    """Frequencies whose exact Huffman tree is a depth-(n-1) vine."""
    a, b = 1, 1
    freqs = {}
    for sym in range(n):
        freqs[sym] = a
        a, b = b, a + b
    return freqs


class TestLengthLimiting:
    def test_fibonacci_exceeds_cap_unlimited(self):
        lengths = lengths_of(_fibonacci_frequencies(30))
        assert max(lengths.values()) > MAX_CODE_LENGTH

    def test_limited_lengths_respect_cap_and_kraft(self):
        freqs = _fibonacci_frequencies(30)
        lengths = lengths_of(freqs, MAX_CODE_LENGTH)
        assert set(lengths) == set(freqs)
        assert max(lengths.values()) <= MAX_CODE_LENGTH
        assert min(lengths.values()) >= 1
        assert sum(2.0 ** -length for length in lengths.values()) <= 1.0 + 1e-9

    def test_limited_equals_exact_when_under_cap(self):
        freqs = {i: 10 + i for i in range(12)}
        assert lengths_of(freqs, 16) == lengths_of(freqs)

    def test_cap_rises_for_huge_alphabets(self):
        # ceil(log2(5000)) = 13 > 8: a prefix code cannot exist at cap 8,
        # so the limiter must raise the cap instead of producing garbage.
        freqs = {i: 1 for i in range(5000)}
        lengths = lengths_of(freqs, 8)
        assert max(lengths.values()) <= 13
        assert sum(2.0 ** -length for length in lengths.values()) <= 1.0 + 1e-9

    def test_adversarial_skew_round_trips_through_length_cap(self):
        # Symbols drawn with Fibonacci-like skew: the unlimited tree is
        # deeper than the cap, so this proves length-limiting preserves
        # the round trip.
        freqs = _fibonacci_frequencies(30)
        rng = np.random.default_rng(7)
        population = np.array(sorted(freqs))
        weights = np.array([freqs[s] for s in population], dtype=np.float64)
        symbols = rng.choice(population, size=20000, p=weights / weights.sum())
        codec = HuffmanCodec()
        payload, book, count = codec.encode(symbols)
        restored = HuffmanCodebook.deserialize(book)
        assert restored.max_length() <= MAX_CODE_LENGTH
        np.testing.assert_array_equal(codec.decode(payload, book, count), symbols)


class TestLutPath:
    def test_single_symbol_stream_through_lut(self):
        codec = HuffmanCodec()
        symbols = np.full(257, -9)
        payload, book, count = codec.encode(symbols)
        assert len(payload) > 0  # 1 bit per symbol, genuinely in the stream
        np.testing.assert_array_equal(codec.decode(payload, book, count), symbols)

    def test_empty_stream_through_lut(self):
        codec = HuffmanCodec()
        payload, book, count = codec.encode(np.array([], dtype=np.int64))
        assert count == 0
        assert codec.decode(payload, book, 0).size == 0

    def test_multi_segment_stream_round_trips(self):
        # Long streams are decoded one segment at a time with the exit
        # position carried over; heavily skewed data packs the most code
        # starts into each segment.
        rng = np.random.default_rng(11)
        symbols = np.where(
            rng.uniform(size=70000) < 0.93, 0, rng.integers(-6, 6, 70000)
        ).astype(np.int64)
        codec = HuffmanCodec()
        payload, book, count = codec.encode(symbols)
        assert len(payload) > huffman_decode._SEGMENT_BYTES
        np.testing.assert_array_equal(codec.decode(payload, book, count), symbols)

    def test_multi_segment_truncated_payload_raises(self):
        rng = np.random.default_rng(13)
        symbols = rng.integers(-40, 40, 70000)
        codec = HuffmanCodec()
        payload, book, count = codec.encode(symbols)
        assert len(payload) // 3 > huffman_decode._SEGMENT_BYTES
        with pytest.raises(EncodingError):
            codec.decode(payload[: len(payload) // 3], book, count)

    def test_legacy_unlimited_codebook_falls_back_to_bitloop(self):
        # A codebook serialized from unlimited lengths (the seed encoder's
        # output for adversarial skew) exceeds the LUT budget; decode must
        # still work via the retained bit-loop path.
        freqs = _fibonacci_frequencies(35)
        book = book_of(freqs)  # unlimited lengths
        assert book.max_length() > 20
        rng = np.random.default_rng(3)
        symbols = rng.choice(np.array(sorted(freqs)), size=500)
        codes, lens = book.lookup(np.asarray(symbols, dtype=np.int64))
        payload = _pack_codes(codes, lens)
        decoded = HuffmanCodec().decode(payload, book.serialize(), symbols.size)
        np.testing.assert_array_equal(decoded, symbols)


def _skewed_stream(alphabet: int, ratio: float, length: int, seed: int) -> np.ndarray:
    """``length`` symbols over ``alphabet`` values, geometric weights ``ratio**i``."""
    rng = np.random.default_rng(seed)
    values = rng.permutation(np.arange(-(alphabet // 2), alphabet - alphabet // 2))
    weights = ratio ** np.arange(alphabet, dtype=np.float64)
    return rng.choice(values, size=length, p=weights / weights.sum()).astype(np.int64)


def _outcome(decode, payload, book, count):
    """Decoded symbols, or the error class a decoder raised."""
    try:
        return decode(payload, book, count).tolist()
    except EncodingError as exc:
        return type(exc)


class TestPointerJumpingDecoder:
    """The one LUT decode path, against the per-bit reference decoder."""

    @settings(max_examples=30, deadline=None, suppress_health_check=list(HealthCheck))
    @given(
        alphabet=st.integers(min_value=1, max_value=600),
        ratio=st.sampled_from([0.3, 0.7, 0.9, 0.98, 1.0]),
        length=st.sampled_from([1, 2, 15, 16, 17, 1000, 40_000, 1_050_000]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_bitloop_over_alphabets_skews_and_lengths(
        self, alphabet, ratio, length, seed
    ):
        symbols = _skewed_stream(alphabet, ratio, length, seed)
        codec = HuffmanCodec()
        payload, book, count = codec.encode(symbols)
        decoded = codec.decode(payload, book, count)
        np.testing.assert_array_equal(decoded, symbols)
        np.testing.assert_array_equal(decoded, codec.decode_bitloop(payload, book, count))

    @pytest.mark.parametrize("segment_bytes", [1, 2, 3, 7, 64])
    def test_tiny_segments_carry_codes_across_every_boundary(
        self, monkeypatch, segment_bytes
    ):
        # With segments this small, 16-bit codes straddle (and span) whole
        # segments and every phase of the exit carry is exercised.
        monkeypatch.setattr(huffman_decode, "_SEGMENT_BYTES", segment_bytes)
        codec = HuffmanCodec()
        for alphabet, ratio, length in [(2, 1.0, 64), (40, 0.8, 500), (300, 0.97, 3000)]:
            symbols = _skewed_stream(alphabet, ratio, length, seed=alphabet)
            payload, book, count = codec.encode(symbols)
            np.testing.assert_array_equal(codec.decode(payload, book, count), symbols)
            for bad in (payload[:-1], payload[: len(payload) // 2]):
                with pytest.raises(EncodingError):
                    codec.decode(bad, book, count)
            with pytest.raises(EncodingError):
                codec.decode(payload, book, count + 9)
        assert len(payload) > 4 * segment_bytes

    def test_long_codes_straddling_segments_match_bitloop(self, monkeypatch):
        monkeypatch.setattr(huffman_decode, "_SEGMENT_BYTES", 2)
        book = book_of(_fibonacci_frequencies(30), max_length=MAX_CODE_LENGTH)
        assert book.max_length() == MAX_CODE_LENGTH
        # Drawn uniformly, so the 16-bit codes (eight segments long) are common.
        symbols = np.random.default_rng(4).choice(np.arange(30), size=800)
        codec = HuffmanCodec()
        payload = codec.encode_with_book(symbols, book)
        assert len(payload) * 8 > 10 * symbols.size
        decoded = codec.decode(payload, book.serialize(), symbols.size)
        np.testing.assert_array_equal(decoded, symbols)
        np.testing.assert_array_equal(
            codec.decode_bitloop(payload, book.serialize(), symbols.size), symbols
        )

    @pytest.mark.parametrize("segment_bytes", [4, huffman_decode._SEGMENT_BYTES])
    def test_last_code_ending_on_the_final_bit(self, monkeypatch, segment_bytes):
        monkeypatch.setattr(huffman_decode, "_SEGMENT_BYTES", segment_bytes)
        symbols = _skewed_stream(12, 0.7, 400, seed=8)
        codec = HuffmanCodec()
        _, book, _ = codec.encode(symbols)
        restored = HuffmanCodebook.deserialize(book)
        bits = np.cumsum(restored.lengths[np.searchsorted(restored.symbols, symbols)])
        keep = int(np.flatnonzero(bits % 8 == 0)[-1]) + 1  # no padding bits
        payload = codec.encode_with_book(symbols[:keep], HuffmanCodebook.deserialize(book))
        assert len(payload) * 8 == bits[keep - 1]
        np.testing.assert_array_equal(codec.decode(payload, book, keep), symbols[:keep])
        with pytest.raises(EncodingError, match="exhausted"):
            codec.decode(payload, book, keep + 1)

    def test_legacy_17_to_20_bit_codebook_uses_the_lut(self):
        # Unlimited lengths past MAX_CODE_LENGTH but inside the LUT budget.
        book = book_of(_fibonacci_frequencies(20))
        assert MAX_CODE_LENGTH < book.max_length() <= 20
        symbols = np.random.default_rng(6).choice(np.arange(20), size=5000)
        codes, lens = book.lookup(symbols.astype(np.int64))
        payload = _pack_codes(codes, lens)
        codec = HuffmanCodec()
        decoded = codec.decode(payload, book.serialize(), symbols.size)
        np.testing.assert_array_equal(decoded, symbols)
        assert book.serialize() in codec._decoders  # not the bit-loop fallback

    def test_over_count_raises(self):
        codec = HuffmanCodec()
        for length in (50, 70_000):
            payload, book, count = codec.encode(_skewed_stream(30, 0.8, length, seed=1))
            with pytest.raises(EncodingError, match="exhausted"):
                codec.decode(payload, book, count + 8)
            with pytest.raises(EncodingError, match="exhausted"):
                codec.decode(payload, book, 10**15)  # must not size a buffer first

    def test_incomplete_codebook_round_trips_and_rejects_invalid_codes(self):
        # Every code one bit longer than needed: Kraft sum 1/2, so half of
        # all windows prefix no code.
        symbols = _skewed_stream(20, 0.8, 5000, seed=2)
        tight = HuffmanCodebook.from_frequencies(symbol_frequencies(symbols))
        loose = HuffmanCodebook(tight.symbols, tight.lengths + 1)
        assert np.sum(2.0 ** -loose.lengths) < 1.0
        codec = HuffmanCodec()
        payload = codec.encode_with_book(symbols, loose)
        book = loose.serialize()
        np.testing.assert_array_equal(codec.decode(payload, book, symbols.size), symbols)
        corrupt = bytearray(payload)
        corrupt[len(corrupt) // 2] = 0xFF  # the all-ones window has no code
        with pytest.raises(EncodingError, match="invalid Huffman code"):
            codec.decode(bytes(corrupt), book, symbols.size)
        with pytest.raises(EncodingError):
            codec.decode_bitloop(bytes(corrupt), book, symbols.size)

    def test_flipped_byte_in_single_symbol_stream_raises(self):
        codec = HuffmanCodec()
        payload, book, count = codec.encode(np.full(4000, 3))
        corrupt = bytearray(payload)
        corrupt[100] ^= 0x10
        with pytest.raises(EncodingError, match="invalid Huffman code"):
            codec.decode(bytes(corrupt), book, count)

    @settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
    @given(
        alphabet=st.integers(min_value=2, max_value=80),
        where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        value=st.integers(min_value=0, max_value=255),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_corrupted_streams_fare_as_in_the_bitloop(self, alphabet, where, value, seed):
        # A complete code decodes *any* bit string, so a flipped byte
        # either yields other symbols or runs the stream dry; whichever
        # it is, both decoders must agree.
        symbols = _skewed_stream(alphabet, 0.85, 600, seed)
        codec = HuffmanCodec()
        payload, book, count = codec.encode(symbols)
        corrupt = bytearray(payload)
        corrupt[int(where * len(corrupt))] = value
        assert _outcome(codec.decode, bytes(corrupt), book, count) == _outcome(
            codec.decode_bitloop, bytes(corrupt), book, count
        )

    def test_transient_memory_is_bounded_by_the_segment(self):
        symbols = _skewed_stream(60, 0.85, 4_000_000, seed=3)
        codec = HuffmanCodec()
        payload, book, count = codec.encode(symbols)
        assert len(payload) > 100 * huffman_decode._SEGMENT_BYTES
        codec.decode(payload[:4096], book, 100)  # build the LUT outside the trace
        tracemalloc.start()
        try:
            decoded = codec.decode(payload, book, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(decoded, symbols)
        # The per-call scratch: positions, windows and the jump levels, one
        # 8-byte entry per bit position of a segment each (plus change).
        scratch = 8 * (huffman_decode._JUMP_LEVELS + 3) * 8 * huffman_decode._SEGMENT_BYTES
        assert peak - decoded.nbytes < 2 * scratch
        # ... where one window per bit position of the whole stream would
        # alone be 8 * 8 * len(payload) bytes.
        assert 2 * scratch < 8 * 8 * len(payload) / 10


def _indexed(codec, symbols, book) -> HuffmanStream:
    """``symbols`` packed with ``book``, as the wire hands the stream to the decoder."""
    payload = codec.encode_with_book(symbols, book)
    return HuffmanStream(
        bytes(payload), symbols.size, getattr(payload, "sync", None), getattr(payload, "every", 0)
    )


def _reference_payload(symbols, book) -> bytes:
    """The canonical bit string, packed with no help from the packers under test."""
    at = np.searchsorted(book.symbols, symbols)
    bits = "".join(
        format(code, f"0{n}b") for code, n in zip(book.codes[at].tolist(), book.lengths[at].tolist())
    )
    return np.packbits(np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")).tobytes()


@pytest.fixture
def lockstep_calls(monkeypatch):
    """How many lockstep tiles ran (the walk is selected from the input alone)."""
    calls = []
    real = huffman_decode.LutDecoder._lockstep

    def spy(self, *args):
        calls.append(args[-1].shape)
        return real(self, *args)

    monkeypatch.setattr(huffman_decode.LutDecoder, "_lockstep", spy)
    return calls


K = SYNC_INTERVAL
#: Geometric weight ratios: ~2, ~4.5 and ~7.5 bits per symbol over 200 values.
SKEWS = {"skewed": 0.6, "moderate": 0.93, "tight": 1.0}


class TestLockstepLanes:
    """The sync index and the lane decoder, against both older decoders."""

    @pytest.mark.parametrize("skew", sorted(SKEWS))
    @pytest.mark.parametrize("count", [K - 1, K, K + 1, 2 * K, 32_768, 7919])
    @pytest.mark.parametrize("min_bytes", [0, 1 << 40])
    def test_matches_pointer_jumping_and_bitloop(self, monkeypatch, skew, count, min_bytes):
        # ``min_bytes`` puts the same batch on either side of the threshold.
        monkeypatch.setattr(huffman_decode, "_LOCKSTEP_MIN_BYTES", min_bytes)
        symbols = _skewed_stream(200, SKEWS[skew], count, seed=count)
        codec = HuffmanCodec()
        payload, book, _ = codec.encode(symbols)
        stream = _indexed(codec, symbols, HuffmanCodebook.deserialize(book))
        assert (stream.sync is None) == (count <= K)
        if count > K:
            assert stream.sync.size == -(-count // K) - 1
        # The payload is bit for bit what a writer without the index packs.
        assert stream.payload == bytes(payload)
        if count <= 2 * K:
            assert stream.payload == _reference_payload(symbols, HuffmanCodebook.deserialize(book))
        (decoded,) = codec.decode_streams([stream], book)
        np.testing.assert_array_equal(decoded, symbols)
        np.testing.assert_array_equal(decoded, codec.decode(stream.payload, book, count))
        np.testing.assert_array_equal(decoded, codec.decode_bitloop(stream.payload, book, count))

    def test_the_input_selects_the_walk(self, lockstep_calls):
        symbols = [_skewed_stream(300, 1.0, 32_768, seed=i) for i in range(6)]
        book = HuffmanCodebook.from_frequencies(
            symbol_frequencies(np.concatenate(symbols)), max_length=MAX_CODE_LENGTH
        )
        codec = HuffmanCodec()
        streams = [_indexed(codec, s, book) for s in symbols]
        for decoded, want in zip(codec.decode_streams(streams, book.serialize()), symbols):
            np.testing.assert_array_equal(decoded, want)
        assert lockstep_calls == [(K, 6 * 32_768 // K)]  # every sync point a lane
        # The same streams with the index withheld, and one of them alone
        # (too few payload bytes per iteration), pointer-jump.
        del lockstep_calls[:]
        bare = [HuffmanStream(s.payload, s.count) for s in streams]
        for decoded, want in zip(codec.decode_streams(bare, book.serialize()), symbols):
            np.testing.assert_array_equal(decoded, want)
        low = _skewed_stream(300, 0.5, 32_768, seed=9)  # ~2 bits per symbol
        _, low_book, _ = codec.encode(low)
        stream = _indexed(codec, low, HuffmanCodebook.deserialize(low_book))
        assert stream.sync is not None
        np.testing.assert_array_equal(codec.decode_streams([stream], low_book)[0], low)
        assert lockstep_calls == []

    @pytest.mark.parametrize("min_bytes", [0, 1 << 40])
    def test_batch_mixing_long_short_and_empty_streams(self, monkeypatch, min_bytes):
        monkeypatch.setattr(huffman_decode, "_LOCKSTEP_MIN_BYTES", min_bytes)
        counts = [5 * K + 3, 1, K, 0, K + 1, 17, 3 * K, K - 1]
        symbols = [_skewed_stream(90, 0.9, n, seed=n) for n in counts]
        book = HuffmanCodebook.from_frequencies(
            symbol_frequencies(np.concatenate(symbols)), max_length=MAX_CODE_LENGTH
        )
        codec = HuffmanCodec()
        streams = [_indexed(codec, s, book) for s in symbols]
        decoded = codec.decode_streams(streams, book.serialize())
        for got, want in zip(decoded, symbols):
            np.testing.assert_array_equal(got, want)

    def test_lanes_are_decoded_in_tiles_of_bounded_size(self, monkeypatch, lockstep_calls):
        # Tile boundaries fall inside streams and inside their last lanes.
        monkeypatch.setattr(huffman_decode, "_LOCKSTEP_SYMBOLS", 7 * K)
        counts = (5 * K + 9, 6 * K, 2 * K + 1, 9 * K - 1)
        symbols = [_skewed_stream(40, 0.8, n, seed=n) for n in counts]
        book = HuffmanCodebook.from_frequencies(
            symbol_frequencies(np.concatenate(symbols)), max_length=MAX_CODE_LENGTH
        )
        codec = HuffmanCodec()
        monkeypatch.setattr(huffman_decode, "_LOCKSTEP_MIN_BYTES", 0)
        streams = [_indexed(codec, s, book) for s in symbols]
        for got, want in zip(codec.decode_streams(streams, book.serialize()), symbols):
            np.testing.assert_array_equal(got, want)
        assert [lanes for _, lanes in lockstep_calls] == [7, 7, 7, 3]

    @pytest.mark.parametrize("alphabet", [1, 2])
    def test_one_and_two_symbol_alphabets(self, monkeypatch, alphabet):
        monkeypatch.setattr(huffman_decode, "_LOCKSTEP_MIN_BYTES", 0)
        symbols = np.random.default_rng(alphabet).integers(0, alphabet, 5 * K + 7) - 4
        codec = HuffmanCodec()
        _, book, _ = codec.encode(symbols)
        stream = _indexed(codec, symbols, HuffmanCodebook.deserialize(book))
        np.testing.assert_array_equal(codec.decode_streams([stream], book)[0], symbols)
        corrupt = bytearray(stream.payload)
        corrupt[len(corrupt) // 2] ^= 0x08
        bad = stream._replace(payload=bytes(corrupt))
        if alphabet == 1:  # a 1-bit code, Kraft sum 1/2: a set bit is no code
            with pytest.raises(EncodingError, match="invalid Huffman code"):
                codec.decode_streams([bad], book)
        else:  # two 1-bit codes: every bit string decodes, to what the bit loop reads
            np.testing.assert_array_equal(
                codec.decode_streams([bad], book)[0],
                codec.decode_bitloop(bad.payload, book, bad.count),
            )

    def test_incomplete_book_round_trips_and_rejects_empty_windows(self, monkeypatch):
        monkeypatch.setattr(huffman_decode, "_LOCKSTEP_MIN_BYTES", 0)
        symbols = _skewed_stream(20, 0.8, 4 * K + 100, seed=2)
        tight = HuffmanCodebook.from_frequencies(symbol_frequencies(symbols))
        loose = HuffmanCodebook(tight.symbols, tight.lengths + 1)
        codec = HuffmanCodec()
        stream = _indexed(codec, symbols, loose)
        book = loose.serialize()
        np.testing.assert_array_equal(codec.decode_streams([stream], book)[0], symbols)
        corrupt = bytearray(stream.payload)
        corrupt[len(corrupt) // 2] = 0xFF  # the all-ones window has no code
        with pytest.raises(EncodingError, match="invalid Huffman code"):
            codec.decode_streams([stream._replace(payload=bytes(corrupt))], book)

    def test_index_shape_is_checked_before_anything_is_sized(self, monkeypatch):
        monkeypatch.setattr(huffman_decode, "_LOCKSTEP_MIN_BYTES", 0)
        symbols = _skewed_stream(30, 0.8, 4 * K, seed=5)
        codec = HuffmanCodec()
        _, book, _ = codec.encode(symbols)
        good = _indexed(codec, symbols, HuffmanCodebook.deserialize(book))
        for bad in (
            good._replace(sync=good.sync[:-1]),  # one sync point short
            good._replace(sync=np.append(good.sync, 9)),  # one too many
            good._replace(count=10**15),  # would need 4e12 lanes
            good._replace(every=0),
            good._replace(every=0xFFFF // MAX_CODE_LENGTH + 1),  # past what uint16 bounds
            good._replace(sync=good.sync * 3),  # starts run off the payload
            good._replace(payload=good.payload[: len(good.payload) // 2]),
            good._replace(payload=good.payload + b"\0"),  # last lane must end in the last byte
            good._replace(count=good.count - 1),  # ... and on its own symbol count
        ):
            with pytest.raises(EncodingError):
                codec.decode_streams([bad], book)

    def test_writer_refuses_a_distance_that_overflows_uint16(self):
        codes = np.zeros(K + 1, dtype=np.uint64)
        with pytest.raises(EncodingError, match="16 bits"):
            _pack_codes(codes, np.full(K + 1, 300))

    def test_corruption_ends_in_a_typed_error_or_the_serial_decode(self, monkeypatch):
        """10 240 bit flips and truncations, half in the index, half in the payload.

        A lane that still ends on its sync point started where the serial
        decode of the same bytes would have, so the only alternative to an
        ``EncodingError`` is that decode's own output: the original symbols
        when the index was hit, whatever the bit loop reads when the
        payload was.  A short interval keeps the case count cheap.
        """
        monkeypatch.setattr(huffman_decode, "_LOCKSTEP_MIN_BYTES", 0)
        monkeypatch.setattr("repro.compression.encoders.huffman.SYNC_INTERVAL", 16)
        rng = np.random.default_rng(2024)
        codec = HuffmanCodec()
        errors = {True: 0, False: 0}  # by what was hit: index / payload
        for alphabet, ratio in [(3, 0.5), (40, 0.85), (300, 1.0), (70, 0.97)]:
            symbols = _skewed_stream(alphabet, ratio, 16 * 9 + 5, seed=alphabet)
            _, book, _ = codec.encode(symbols)
            payload = codec.encode_with_book(symbols, HuffmanCodebook.deserialize(book))
            good = HuffmanStream(bytes(payload), symbols.size, payload.sync.astype(np.uint16), 16)
            np.testing.assert_array_equal(codec.decode_streams([good], book)[0], symbols)
            for case in range(2560):
                hit_index, truncate = case % 2 == 0, case % 8 >= 6
                raw = bytearray(good.sync.tobytes() if hit_index else good.payload)
                if truncate:
                    del raw[int(rng.integers(0, len(raw))) :]
                    if hit_index:
                        del raw[len(raw) & ~1 :]  # whole entries: the wire rejects half of one
                else:
                    raw[int(rng.integers(0, len(raw)))] ^= 1 << int(rng.integers(0, 8))
                if hit_index:
                    bad = good._replace(sync=np.frombuffer(bytes(raw), dtype=np.uint16))
                    allowed = symbols.tolist()
                else:
                    bad = good._replace(payload=bytes(raw))
                    allowed = _outcome(codec.decode_bitloop, bad.payload, book, bad.count)
                outcome = _outcome(lambda *_: codec.decode_streams([bad], book)[0], 0, 0, 0)
                assert outcome is EncodingError or outcome == allowed
                errors[hit_index] += outcome is EncodingError
        # No damaged index decodes; a damaged payload does when the flip
        # swapped codes of one length (most flips in a near-uniform book)
        # or fell in the padding, which no Huffman decoder can tell.
        assert errors[True] == 5120
        assert 2000 < errors[False] < 5120


class TestSharedBookEncoding:
    def test_encode_with_book_matches_own_book(self):
        rng = np.random.default_rng(5)
        symbols = rng.integers(-30, 30, 5000)
        codec = HuffmanCodec()
        payload, book_bytes, count = codec.encode(symbols)
        book = HuffmanCodebook.deserialize(book_bytes)
        assert codec.encode_with_book(symbols, book) == payload

    def test_symbol_frequencies_matches_unique(self):
        rng = np.random.default_rng(9)
        arr = rng.integers(-1000, 1000, 30000)
        uniques, counts = np.unique(arr, return_counts=True)
        got = symbol_frequencies(arr)
        np.testing.assert_array_equal(got.symbols, uniques)
        np.testing.assert_array_equal(got.counts, counts)


    @pytest.mark.parametrize("wide", [False, True])
    def test_pooled_frequencies_match_the_merge(self, wide):
        rng = np.random.default_rng(12)
        streams = [rng.integers(-40 * (i + 1), 60, 500 * i) for i in range(4)]  # one empty
        if wide:  # past the dense-histogram span: the np.unique route
            streams[2] = np.append(streams[2], [10**12, -(10**11)])
        merged = {}
        for stream in streams:
            for sym, freq in as_dict(*symbol_frequencies(stream)).items():
                merged[sym] = merged.get(sym, 0) + freq
        pooled = pooled_symbol_frequencies(streams)
        assert as_dict(*pooled) == merged
        assert list(pooled.symbols) == sorted(merged)
        assert pooled_symbol_frequencies([]).symbols.size == 0


def _random_book(n: int, lo: int, seed: int, wide: bool) -> HuffmanCodebook:
    """A length-limited book over ``n`` symbols from ``lo`` up, with an interior gap
    whenever ``n > 1`` (past ``_DENSE_SPAN_LIMIT`` when ``wide``) and lengths up to 16."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(1, 4, n - 1)
    if n > 1:
        steps[rng.integers(n - 1)] = _DENSE_SPAN_LIMIT if wide else 2
    symbols = lo + np.concatenate(([0], np.cumsum(steps)))
    counts = np.left_shift(1, rng.integers(0, 40, n))  # skewed enough to hit the cap
    book = HuffmanCodebook.from_frequencies(Histogram(symbols, counts), MAX_CODE_LENGTH)
    assert book.max_length() <= 16
    return book


#: Stream lengths around the sync interval and the pair boundary, one
#: block, and an odd count near 40 000.
WRITER_COUNTS = [1, 2, 3, K - 1, K, K + 1, 2 * K, 2 * K + 1, 32_768, 39_999]


class TestPairWriter:
    """The <= 16-bit writer against the general reference packer."""

    @pytest.mark.parametrize("wide", [False, True])
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(1, 400),
        lo=st.integers(-5000, 5000),
        seed=st.integers(0, 2**16),
        count=st.sampled_from(WRITER_COUNTS),
    )
    @example(n=1, lo=0, seed=0, count=K + 1)
    @example(n=400, lo=-200, seed=1, count=39_999)
    def test_bytes_and_sync_index_equal_the_reference(self, wide, n, lo, seed, count):
        book = _random_book(n, lo, seed, wide and n > 1)
        stream = np.random.default_rng(seed + 1).choice(book.symbols, size=count)
        codes, lengths = book.lookup(stream)
        payload = HuffmanCodec().encode_with_book(stream, book)
        assert bytes(payload) == bytes(_pack_codes(codes, lengths))
        if count > K:
            starts = np.cumsum(lengths, dtype=np.int64)[K - 1 : -1 : K]
            np.testing.assert_array_equal(payload.sync, np.diff(starts, prepend=0))
            assert payload.every == K
        else:
            assert not hasattr(payload, "sync")

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("where", ["below", "above", "gap", "int64 min", "int64 max"])
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 400), seed=st.integers(0, 2**16), count=st.sampled_from(WRITER_COUNTS))
    def test_a_symbol_the_book_lacks_raises(self, wide, where, n, seed, count):
        if where == "gap" and n == 1:
            n = 2
        book = _random_book(n, -100, seed, wide and n > 1)
        rng = np.random.default_rng(seed + 1)
        stream = rng.choice(book.symbols, size=count)
        lacking = {
            "below": lambda s: int(s[0]) - 1,
            "above": lambda s: int(s[-1]) + 1,
            "gap": lambda s: int(s[np.flatnonzero(np.diff(s) > 1)[0]]) + 1,
            "int64 min": lambda s: np.iinfo(np.int64).min,
            "int64 max": lambda s: np.iinfo(np.int64).max,
        }[where]
        stream[rng.integers(count)] = lacking(book.symbols)
        with pytest.raises(EncodingError):
            HuffmanCodec().encode_with_book(stream, book)
        with pytest.raises(EncodingError):
            book.lookup(stream)

    @pytest.mark.parametrize(
        "symbols, lacking",
        [
            (np.iinfo(np.int64).max - np.arange(4)[::-1], np.iinfo(np.int64).min),
            (np.iinfo(np.int64).min + np.arange(1, 5), np.iinfo(np.int64).max),
            (np.iinfo(np.int64).min + np.arange(4), np.iinfo(np.int64).max),
        ],
    )
    def test_books_at_the_ends_of_int64_refuse_the_other_end(self, symbols, lacking):
        """``symbol - (lo - 1)`` may wrap; it must never wrap into the table."""
        book = HuffmanCodebook(symbols, np.full(4, 2))
        codec = HuffmanCodec()
        assert codec.encode_with_book(symbols, book) == _pack_codes(*book.lookup(symbols))
        with pytest.raises(EncodingError):
            codec.encode_with_book(np.append(symbols, lacking), book)

    @pytest.mark.parametrize("chunk", [2, 6, 512])
    def test_chunked_pairs_write_the_same_bytes(self, monkeypatch, chunk):
        """Windows that straddle a chunk boundary sum into the same words."""
        book = _random_book(300, -150, 7, wide=False)
        stream = np.random.default_rng(8).choice(book.symbols, size=5 * K + 3)
        whole = HuffmanCodec().encode_with_book(stream, book)
        monkeypatch.setattr(huffman, "_PACK16_CHUNK", chunk)
        chunked = HuffmanCodec().encode_with_book(stream, book)
        assert bytes(chunked) == bytes(whole) == bytes(_pack_codes(*book.lookup(stream)))
        np.testing.assert_array_equal(chunked.sync, whole.sync)


class TestOldVsNewEquivalence:
    """Property fuzz: the LUT decoder == the seed per-bit decoder."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        symbols=st.lists(st.integers(min_value=-500, max_value=500), min_size=1, max_size=400),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_decode_equivalence_over_random_alphabets(self, symbols, seed):
        rng = np.random.default_rng(seed)
        arr = rng.choice(np.array(symbols, dtype=np.int64), size=len(symbols) * 3)
        codec = HuffmanCodec()
        payload, book, count = codec.encode(arr)
        lut = codec.decode(payload, book, count)
        bitloop = codec.decode_bitloop(payload, book, count)
        np.testing.assert_array_equal(lut, bitloop)
        np.testing.assert_array_equal(lut, arr)


class TestWideAlphabets:
    def test_wide_span_alphabet_uses_sparse_lookup(self):
        # The value span is too wide for dense bincount/lookup tables;
        # the unique/searchsorted fallbacks must keep the round trip.
        rng = np.random.default_rng(17)
        symbols = rng.choice(np.array([0, 7, 10**9, -(10**12), 55]), size=4000)
        codec = HuffmanCodec()
        payload, book, count = codec.encode(symbols)
        np.testing.assert_array_equal(codec.decode(payload, book, count), symbols)
        np.testing.assert_array_equal(
            codec.decode_bitloop(payload, book, count), symbols
        )
