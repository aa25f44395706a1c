"""The Huffman model as arrays equals the dict reference, and bad books fail typed.

``huffman_reference`` keeps the per-symbol Python construction every
stored blob's codebook was built with; the array versions in
``repro.compression.encoders.huffman`` must give the same code lengths
(unlimited and length-limited, Kraft repair included) and the same
canonical codes.  A serialised codebook that is not a prefix code — in
the dense layout, or as the (symbol, length) pairs container versions 1
and 2 stored — is refused with :class:`EncodingError` — by
``HuffmanCodebook.deserialize`` / ``from_pairs``, by
``HuffmanCodec.decode`` and by a blob whose header carries it as the
shared book.
"""

from __future__ import annotations

import base64
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compression import CompressedBlob, ErrorBound, create_compressor
from repro.compression.encoders.huffman import (
    MAX_CODE_LENGTH,
    HuffmanCodebook,
    HuffmanCodec,
    huffman_code_lengths,
    length_limited_code_lengths,
)
from repro.errors import EncodingError

import huffman_reference as reference
from huffman_reference import as_dict, histogram

FIXTURES = json.loads(Path(__file__).with_name("blob_fixtures.json").read_text())


def _assert_matches_reference(frequencies, max_length):
    """Array lengths and codes == the dict reference's, for one cap (``None``: unlimited)."""
    h = histogram(frequencies)
    if max_length is None:
        want = reference.huffman_code_lengths(frequencies)
        got = huffman_code_lengths(h)
    else:
        want = reference.length_limited_code_lengths(frequencies, max_length)
        got = length_limited_code_lengths(h, max_length)
    assert as_dict(h.symbols, got) == want
    book = HuffmanCodebook.from_frequencies(h, max_length)
    np.testing.assert_array_equal(book.lengths, got)
    assert as_dict(book.symbols, book.codes) == reference.canonical_codes(want)


def _fibonacci(n: int) -> dict:
    """Counts whose exact Huffman tree is a depth-(n-1) vine."""
    a, b, out = 1, 1, {}
    for sym in range(n):
        out[sym] = a
        a, b = b, a + b
    return out


@st.composite
def _histograms(draw) -> dict:
    """``{symbol: count}``: uniform random, heavily tied, or geometric (deep) counts."""
    n = draw(st.integers(1, 600))
    shape = draw(st.sampled_from(["random", "ties", "geometric"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    symbols = rng.choice(1 << 24, size=n, replace=False) - (1 << 23)
    if shape == "random":
        counts = rng.integers(1, 10**9, n)
    elif shape == "ties":
        counts = rng.choice(np.array([1, 2, 3, 8]), n)
    else:  # long tails: the exact tree runs past small caps
        counts = 1 + (10**9 * draw(st.floats(0.3, 0.95)) ** np.arange(n)).astype(np.int64)
    return dict(zip(symbols.tolist(), counts.tolist()))


class TestArrayModelMatchesTheReference:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(frequencies=_histograms(), max_length=st.sampled_from([None, 16, 12, 8, 5, 3, 1]))
    def test_lengths_and_codes(self, frequencies, max_length):
        _assert_matches_reference(frequencies, max_length)

    @pytest.mark.parametrize("max_length", [None, 16, 2])
    def test_single_symbol(self, max_length):
        _assert_matches_reference({-7: 3}, max_length)

    @pytest.mark.parametrize("n", [20, 30, 45])
    @pytest.mark.parametrize("max_length", [None, 16, 12, 7])
    def test_fibonacci_vine(self, n, max_length):
        _assert_matches_reference(_fibonacci(n), max_length)

    @pytest.mark.parametrize("max_length", [4, 8])
    def test_small_caps_force_the_kraft_repair(self, max_length):
        frequencies = {sym: 1 + 3**sym for sym in range(14)}
        unlimited = reference.huffman_code_lengths(frequencies)
        assert max(unlimited.values()) > max_length  # clamped, then repaired
        _assert_matches_reference(frequencies, max_length)

    def test_alphabet_above_2_16_raises_the_cap(self):
        n = (1 << 16) + 500
        rng = np.random.default_rng(5)
        counts = 1 + (rng.pareto(1.2, n) * 50).astype(np.int64)
        frequencies = dict(zip(range(-n // 2, n - n // 2), counts.tolist()))
        lengths = length_limited_code_lengths(histogram(frequencies), MAX_CODE_LENGTH)
        assert int(lengths.max()) == 17  # ceil(log2(n)), past the 16-bit cap
        _assert_matches_reference(frequencies, MAX_CODE_LENGTH)


def _pairs(symbols, lengths) -> bytes:
    """A codebook as container versions 1 and 2 stored it: int64 (symbol, length) pairs."""
    return np.column_stack((symbols, lengths)).astype(np.int64).tobytes()


def _dense(lo: int, lengths) -> bytes:
    """A serialised codebook: ``i64 lo`` then a ``u8`` length per value from ``lo``."""
    return struct.pack("<q", lo) + bytes(lengths)


#: Pair-layout books ``from_pairs`` must refuse, with the reason each is not one.
BAD_PAIR_BOOKS = {
    "odd-size": _pairs([-3, 0, 7], [2, 1, 2])[:-8],
    "stray-byte": _pairs([0, 1], [1, 1]) + b"\0",
    "zero-length": _pairs([0, 1, 2], [1, 2, 0]),
    "negative-length": _pairs([0, 1, 2], [1, 2, -1]),
    "length-65": _pairs([0, 1, 2], [1, 2, 65]),
    "descending-symbols": _pairs([1, 0], [1, 1]),
    "repeated-symbol": _pairs([0, 0, 1], [2, 2, 1]),
    "kraft-above-1": _pairs([-1, 0, 1], [1, 1, 1]),
}

#: Dense books ``deserialize`` must refuse, with the reason each is not one.
BAD_BOOKS = {
    "shorter-than-lo": _dense(0, [])[:7],
    "no-symbol": _dense(5, [0, 0, 0]),
    "length-65": _dense(0, [1, 2, 65]),
    "kraft-above-1": _dense(-1, [1, 1, 1]),
    "symbols-past-int64": _dense((1 << 63) - 1, [1, 1]),
    "wide-pairs-not-from-lo": struct.pack("<q", 5) + b"\0" + _pairs([0, 1 << 40], [1, 1]),
    "wide-pairs-odd-size": struct.pack("<q", 0) + b"\0" + _pairs([0, 1 << 40], [1, 1])[:-8],
}


class TestDeserializeRejectsWhatIsNotAPrefixCode:
    def test_round_trip_of_a_valid_book(self):
        book = HuffmanCodebook.deserialize(_dense(-3, [2, 0, 0, 1] + [0] * 6 + [2]))
        assert as_dict(book.symbols, book.codes) == {0: 0b0, -3: 0b10, 7: 0b11}
        assert book.serialize() == _dense(-3, [2, 0, 0, 1] + [0] * 6 + [2])

    def test_the_pair_layout_reads_as_the_same_book(self):
        book = HuffmanCodebook.from_pairs(_pairs([-3, 0, 7], [2, 1, 2]))
        assert book.serialize() == _dense(-3, [2, 0, 0, 1] + [0] * 6 + [2])

    def test_a_book_too_wide_for_the_dense_layout_stores_pairs(self):
        book = HuffmanCodebook(np.array([-7, 0, 1 << 40]), np.array([2, 1, 2]))
        payload = book.serialize()
        assert payload == struct.pack("<q", -7) + b"\0" + _pairs([-7, 0, 1 << 40], [2, 1, 2])
        again = HuffmanCodebook.deserialize(payload)
        assert as_dict(again.symbols, again.codes) == as_dict(book.symbols, book.codes)

    @pytest.mark.parametrize("name", ["wide-pairs-not-from-lo", "wide-pairs-odd-size"])
    def test_a_damaged_wide_book(self, name):
        with pytest.raises(EncodingError, match="corrupt Huffman codebook"):
            HuffmanCodebook.deserialize(BAD_BOOKS[name])

    @pytest.mark.parametrize("name", ["odd-size", "stray-byte"])
    def test_odd_payload_size(self, name):
        with pytest.raises(EncodingError, match="corrupt Huffman codebook"):
            HuffmanCodebook.from_pairs(BAD_PAIR_BOOKS[name])

    @pytest.mark.parametrize("name", ["zero-length", "negative-length", "length-65"])
    def test_lengths_outside_1_to_64(self, name):
        with pytest.raises(EncodingError, match=r"\[1, 64\]"):
            HuffmanCodebook.from_pairs(BAD_PAIR_BOOKS[name])
        if name in BAD_BOOKS:
            with pytest.raises(EncodingError, match=r"\[1, 64\]"):
                HuffmanCodebook.deserialize(BAD_BOOKS[name])

    @pytest.mark.parametrize("name", ["descending-symbols", "repeated-symbol"])
    def test_symbols_not_strictly_increasing(self, name):
        with pytest.raises(EncodingError, match="strictly increasing"):
            HuffmanCodebook.from_pairs(BAD_PAIR_BOOKS[name])

    def test_kraft_sum_above_one(self):
        # Every length 1 over three symbols: it used to decode, silently wrong.
        with pytest.raises(EncodingError, match="Kraft"):
            HuffmanCodebook.from_pairs(BAD_PAIR_BOOKS["kraft-above-1"])
        with pytest.raises(EncodingError, match="Kraft"):
            HuffmanCodebook.deserialize(BAD_BOOKS["kraft-above-1"])

    def test_the_longest_legal_codes_are_accepted(self):
        book = HuffmanCodebook.deserialize(_dense(0, [1, 64, 64]))
        assert book.codes.tolist() == [0, 1 << 63, (1 << 63) + 1]


@pytest.fixture(scope="module")
def shared_book_blob() -> bytes:
    """A blocked sz3 blob whose blocks decode with the header's shared Huffman book."""
    data = np.cumsum(np.random.default_rng(3).normal(size=(48, 48)), axis=1)
    compressor = create_compressor("sz3").configure_blocks(block_shape=16, shared_codebook=True)
    blob = compressor.compress(data.astype(np.float32), ErrorBound.relative(1e-3)).blob
    assert blob.codebook_mode == "shared"
    return blob.to_bytes()


@pytest.mark.parametrize("name", sorted(BAD_BOOKS))
def test_a_bad_book_fails_typed_through_the_codec(name):
    codec = HuffmanCodec()
    with pytest.raises(EncodingError):
        codec.decode(b"\x5a" * 8, BAD_BOOKS[name], 16)
    with pytest.raises(EncodingError):
        codec.decode_bitloop(b"\x5a" * 8, BAD_BOOKS[name], 16)


@pytest.mark.parametrize("name", sorted(BAD_BOOKS))
def test_a_bad_book_fails_typed_as_a_blobs_shared_book(shared_book_blob, name):
    blob = CompressedBlob.from_bytes(shared_book_blob)
    create_compressor("sz3").decompress(blob)  # the untouched blob decodes
    blob.container.header["shared_codebook"] = zlib.compress(BAD_BOOKS[name])
    with pytest.raises(EncodingError):
        create_compressor("sz3").decompress(CompressedBlob.from_bytes(blob.to_bytes()))


@pytest.mark.parametrize("name", sorted(BAD_PAIR_BOOKS))
def test_a_bad_pair_book_fails_typed_as_a_version_2_blobs_shared_book(name):
    """An older build's blob carries its shared book as base64 pairs."""
    blob = CompressedBlob.from_bytes(bytes.fromhex(FIXTURES["v2-huffman-shared"]["hex"]))
    assert isinstance(blob.container.header["shared_codebook"], str)
    create_compressor("sz3").decompress(blob)
    blob.container.header["shared_codebook"] = base64.b64encode(
        zlib.compress(BAD_PAIR_BOOKS[name])
    ).decode("ascii")
    with pytest.raises(EncodingError):
        create_compressor("sz3").decompress(CompressedBlob.from_bytes(blob.to_bytes()))
