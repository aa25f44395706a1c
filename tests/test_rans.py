"""Unit and edge-case tests for the interleaved rANS entropy coder.

Covers the frequency model's corners (single-symbol alphabets, skew far
past the 12-bit quantisation resolution, alphabets too large for a
table), both table layouts (gaps, and the offsets older builds wrote)
and every way a table can fail to be a model, the codec's round-trip
contract across stream shapes, the lockstep batch decode (equal to
decoding each stream alone, and failing whole on any corrupt member),
the lockstep batch encode (byte-equal to a scalar one-lane-at-a-time
reference at any lane limit, inside the pipeline too), the lane limit a
file's plan sets (an 18-block file codes every block in 256 lanes,
whichever path settles it), and the pipeline-level fallback: a block
whose alphabet cannot fit a rANS table must degrade to Huffman *inside*
a rans-configured pipeline and say so in its per-block codec tag.

``python tests/test_rans.py --table`` prints blob bytes and process CPU
(encode plus decode) per file for rANS against Huffman, shared and
per-block: the decision data for keeping rANS.
"""

from __future__ import annotations

import base64
import struct
import sys
import time
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.compression import CompressedBlob, ErrorBound, create_blocked_compressor
from repro.compression.encoders.huffman import Histogram, symbol_frequencies
from repro.compression.encoders.rans import (
    MAX_LANES,
    MAX_TABLE_SYMBOLS,
    PROB_SCALE,
    RansCodec,
    RansFrequencyTable,
    _pick_lanes,
    lane_limit,
    quantize_frequencies,
)
from repro.compression.sz import pipeline as sz_pipeline
from repro.compression.sz.encoding import open_section
from repro.compression.sz.pipeline import PredictionPipelineCompressor
from repro.core.parallel import HelperLane, ParallelExecutor
from repro.datasets import generate_field
from repro.errors import EncodingError

from huffman_reference import histogram

BOUND_1E3 = ErrorBound.relative(1e-3)
#: One lane for the module: its thread outlives the tests that use it.
LANE = HelperLane("rans-width-lane")

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _table(frequencies: Histogram) -> RansFrequencyTable:
    """The table of ``frequencies``, which must fit one."""
    table = RansFrequencyTable.try_from_frequencies(frequencies)
    assert table is not None
    return table


def _encode(codec: RansCodec, stream: np.ndarray) -> Tuple[bytes, bytes, int]:
    """``(payload, table_bytes, count)`` of ``stream`` coded against a table of its own."""
    if not stream.size:
        return b"", b"", 0
    table = _table(symbol_frequencies(stream))
    return codec.encode_with_table(stream, table), table.serialize(), int(stream.size)


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
        table = _table(histogram({-5: 7, 0: 100, 12345: 3}))
        restored = RansFrequencyTable.deserialize(table.serialize())
        assert np.array_equal(restored.symbols, table.symbols)
        assert np.array_equal(restored.freqs, table.freqs)

    def test_alphabet_too_large_returns_none(self):
        frequencies = {i: 1 for i in range(MAX_TABLE_SYMBOLS + 1)}
        assert RansFrequencyTable.try_from_frequencies(histogram(frequencies)) is None

    def test_span_too_wide_returns_none(self):
        assert RansFrequencyTable.try_from_frequencies(histogram({0: 1, 1 << 32: 1})) is None

    def test_truncated_table_rejected(self):
        table = _table(histogram({0: 1, 1: 1}))
        with pytest.raises(EncodingError):
            RansFrequencyTable.deserialize(table.serialize()[:-1])

    def test_gather_rejects_an_unknown_symbol(self):
        table = _table(histogram({0: 1, 4: 1}))
        for stream in ([0, 2], [0, 99], [-1]):
            with pytest.raises(EncodingError):
                table.gather_freq_cum(np.array(stream, dtype=np.int64))


#: 23 symbols with gaps in their alphabet, as a quantiser leaves them.
TABLE23 = _table(histogram({
    **{s: 40 - abs(s) for s in range(-10, 10)}, -40: 2, 25: 1, 300: 3,
}))


def _layout(version: int, lo: int, stored: np.ndarray, freqs: np.ndarray) -> bytes:
    """Table bytes in ``version``'s layout: ``stored`` holds its offsets (1) or gaps (2)."""
    header = struct.pack("<BBHq", version, 0, len(stored) - 1, lo)
    return header + np.asarray(stored, "<u4").tobytes() + np.asarray(freqs, "<u2").tobytes()


def _bad_table(case: str, version: int) -> bytes:
    """:data:`TABLE23` in ``version``'s layout, broken as ``case`` says."""
    symbols, freqs = TABLE23.symbols, TABLE23.freqs.astype(np.int64)
    lo = int(symbols[0])
    stored = symbols - lo if version == 1 else np.diff(symbols - lo, prepend=-1) - 1
    if case == "truncated":
        return _layout(version, lo, stored, freqs)[:-1]
    if case == "trailing":
        return _layout(version, lo, stored, freqs) + b"\0"
    if case == "swapped":  # two offsets swapped; gaps only climb, but past int64 they wrap
        if version == 1:
            stored = stored[[0, 2, 1, *range(3, stored.size)]]
        else:
            lo = 2**63 - 1
    elif case == "zero-frequency":
        freqs = np.concatenate([[freqs[0] + freqs[1], 0], freqs[2:]])
    elif case == "too-many":
        n = MAX_TABLE_SYMBOLS + 1
        stored, freqs = (np.arange(n) if version == 1 else np.zeros(n)), np.ones(n)
    elif case == "span":
        stored = np.concatenate([stored[:-1], [2**32 - 1]])
    return _layout(version, lo, stored, freqs)


#: ``(case, version)`` of every table :func:`_bad_table` breaks.
BAD_TABLES = [
    (case, version) for case in ("truncated", "trailing", "swapped", "zero-frequency", "too-many")
    for version in (1, 2)
] + [("span", 2)]


class TestTableValidation:
    """A table that is not a model fails with ``EncodingError``, in either layout."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_both_layouts_read_the_same_table(self, version):
        lo = int(TABLE23.symbols[0])
        stored = TABLE23.symbols - lo
        if version == 2:
            stored = np.diff(stored, prepend=-1) - 1
            assert TABLE23.serialize() == _layout(2, lo, stored, TABLE23.freqs)
        table = RansFrequencyTable.deserialize(_layout(version, lo, stored, TABLE23.freqs))
        assert np.array_equal(table.symbols, TABLE23.symbols)
        assert np.array_equal(table.freqs, TABLE23.freqs)

    def test_gaps_are_mostly_zero_on_a_quantisers_alphabet(self):
        gaps = np.frombuffer(TABLE23.serialize(), "<u4", 23, 12)
        assert gaps.tolist() == [0, 29] + [0] * 19 + [15, 274]

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("case", ["truncated", "trailing"])
    def test_a_table_not_exactly_its_layouts_size_fails(self, case, version):
        with pytest.raises(EncodingError, match="is not"):
            RansFrequencyTable.deserialize(_bad_table(case, version))

    @pytest.mark.parametrize("version", [1, 2])
    def test_symbols_that_do_not_strictly_increase_fail(self, version):
        with pytest.raises(EncodingError, match="strictly increase"):
            RansFrequencyTable.deserialize(_bad_table("swapped", version))

    @pytest.mark.parametrize("version", [1, 2])
    def test_a_zero_frequency_fails(self, version):
        with pytest.raises(EncodingError, match="positive"):
            RansFrequencyTable.deserialize(_bad_table("zero-frequency", version))

    @pytest.mark.parametrize("version", [1, 2])
    def test_more_than_max_table_symbols_fail(self, version):
        with pytest.raises(EncodingError, match=f"1-{MAX_TABLE_SYMBOLS} symbols"):
            RansFrequencyTable.deserialize(_bad_table("too-many", version))

    def test_a_version_2_span_of_2_to_the_32_fails(self):
        with pytest.raises(EncodingError, match="spans"):
            RansFrequencyTable.deserialize(_bad_table("span", 2))

    @pytest.mark.parametrize("case, version", BAD_TABLES, ids=[f"{c}-v{v}" for c, v in BAD_TABLES])
    def test_a_bad_table_fails_a_batch_decode(self, case, version):
        codec = RansCodec()
        stream = np.resize(TABLE23.symbols, 5000)
        good = (codec.encode_with_table(stream, TABLE23), TABLE23.serialize(), stream.size)
        assert np.array_equal(codec.decode_streams([good])[0], stream)
        with pytest.raises(EncodingError):
            codec.decode_streams([good, (good[0], _bad_table(case, version), stream.size)])

    @pytest.mark.parametrize("case, version", BAD_TABLES, ids=[f"{c}-v{v}" for c, v in BAD_TABLES])
    def test_a_bad_shared_table_fails_the_blobs_decode(self, case, version):
        field = generate_field("miranda", "density", scale=0.08, seed=3).data
        compressor = create_blocked_compressor("sz3", block_shape=16, entropy_stage="rans")
        blob = compressor.compress(field, ErrorBound.relative(1e-3), verify=False).blob
        assert blob.codebook_mode == "shared"
        bad = base64.b64encode(zlib.compress(_bad_table(case, version))).decode("ascii")
        blob.container.header["shared_codebook"] = bad
        damaged = CompressedBlob.from_bytes(blob.to_bytes())
        assert damaged.container.header["shared_codebook"] == bad
        with pytest.raises(EncodingError):
            compressor.decompress(damaged)


class TestRansCodecRoundTrip:
    @_SETTINGS
    @given(stream=_symbol_streams())
    def test_round_trips_exactly(self, stream: np.ndarray):
        codec = RansCodec()
        payload, table_bytes, count = _encode(codec, stream)
        assert count == stream.size
        decoded = codec.decode(payload, table_bytes, count)
        assert np.array_equal(decoded, stream)

    def test_empty_stream(self):
        codec = RansCodec()
        table = _table(histogram({0: 1}))
        assert codec.encode_with_table(np.array([], dtype=np.int64), table) == b""
        assert codec.decode(b"", table.serialize(), 0).size == 0

    def test_single_symbol_stream_is_tiny(self):
        """A constant stream carries ~zero information: the payload is
        just the header plus the lane states, no words."""
        codec = RansCodec()
        stream = np.full(10_000, 42, dtype=np.int64)
        payload, table_bytes, count = _encode(codec, stream)
        assert np.array_equal(codec.decode(payload, table_bytes, count), stream)
        # Header + lane states only: the sole symbol has probability 1,
        # so every encode step is a no-op and zero words are emitted.
        assert len(payload) <= 16 + 4 * 1024

    def test_full_16bit_alphabet_has_no_table(self):
        """All 65536 quantiser symbols present: no 12-bit table fits, so
        none can be built, nor constructed directly."""
        wide = histogram(dict.fromkeys(range(1 << 16), 1))
        assert RansFrequencyTable.try_from_frequencies(wide) is None
        with pytest.raises(EncodingError):
            RansFrequencyTable(np.arange(1 << 16), np.ones(1 << 16))

    def test_corrupt_payload_rejected(self):
        codec = RansCodec()
        payload, table_bytes, count = _encode(codec, np.arange(512, dtype=np.int64) % 17)
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
            batch.append(_encode(codec, stream))
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


def _reference_encode(
    symbols: np.ndarray, table: RansFrequencyTable, cap: int = MAX_LANES
) -> Optional[bytes]:
    """Scalar rANS, one lane at a time, written from the module docstring.

    Symbol ``i`` is on lane ``i % lanes`` (``lanes`` at most ``cap``, the
    coding codec's ``max_lanes``), the last round is padded with
    the table's most probable symbol, each lane starts at ``2**16`` and
    walks its rounds backwards, emitting its low 16 bits before a step
    that would leave 32 bits; the word stream is every emitted word in
    round order, ascending lanes within a round.
    """
    if symbols.size == 0:
        return b""
    freq = dict(zip(table.symbols.tolist(), table.freqs.tolist()))
    cum = dict(zip(table.symbols.tolist(), table.cum.tolist()))
    if not set(symbols.tolist()) <= freq.keys():
        return None
    lanes = _pick_lanes(symbols.size, cap)
    rounds = -(-symbols.size // lanes)
    modal = table.symbols.tolist()[int(np.argmax(table.freqs))]
    padded = symbols.tolist() + [modal] * (rounds * lanes - symbols.size)
    states, emitted = [], []
    for lane in range(lanes):
        x = 1 << 16
        for r in reversed(range(rounds)):
            f, c = freq[padded[r * lanes + lane]], cum[padded[r * lanes + lane]]
            if x >= f << 20:
                emitted.append((r, lane, x & 0xFFFF))
                x >>= 16
            x = (x // f << 12) + x % f + c
        states.append(x)
    words = [word for _, _, word in sorted(emitted)]
    header = struct.pack("<BBHIQ", 1, lanes.bit_length() - 1, 0, len(words), symbols.size)
    return header + struct.pack(f"<{lanes}I", *states) + struct.pack(f"<{len(words)}H", *words)


@st.composite
def _encode_batches(draw) -> List[Tuple[np.ndarray, RansFrequencyTable]]:
    """A shuffled batch of ``(symbols, table)`` streams.

    Up to eight random streams of 1-3000 symbols (so several round
    counts, lane widths and paddings), each with its own table or one
    table pooled over the batch, plus a constant stream on its own table
    (its one symbol at frequency ``PROB_SCALE``) and an empty stream.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 3000), min_size=1, max_size=8))
    scales = draw(st.lists(st.sampled_from([0.3, 2.0, 40.0]), min_size=len(sizes),
                           max_size=len(sizes)))
    streams = [np.round(rng.laplace(0.0, b, n)).astype(np.int64) for n, b in zip(sizes, scales)]
    pooled = _table(symbol_frequencies(np.concatenate(streams)))
    shared = draw(st.lists(st.booleans(), min_size=len(streams), max_size=len(streams)))
    batch = [
        (s, pooled if use else _table(symbol_frequencies(s)))
        for s, use in zip(streams, shared)
    ]
    constant = np.full(draw(st.integers(1, 3000)), -5, dtype=np.int64)
    batch.append((constant, _table(histogram({-5: constant.size}))))
    batch.append((np.zeros(0, dtype=np.int64), pooled))
    order = draw(st.permutations(range(len(batch))))
    return [batch[i] for i in order]


class TestRansBatchEncode:
    @_SETTINGS
    @given(batch=_encode_batches())
    def test_batch_equals_the_scalar_reference_and_round_trips(self, batch):
        codec = RansCodec()
        payloads = codec.encode_streams(batch)
        assert payloads == [_reference_encode(symbols, table) for symbols, table in batch]
        assert PROB_SCALE in {int(table.freqs.max()) for _, table in batch}
        triples = [(p, t.serialize(), s.size) for p, (s, t) in zip(payloads, batch)]
        for (symbols, _), decoded in zip(batch, codec.decode_streams(triples)):
            assert np.array_equal(decoded, symbols)

    @_SETTINGS
    @given(batch=_encode_batches(), cap=st.sampled_from([1, 2, 16, 64, 256]))
    def test_a_lane_limit_narrows_each_stream_as_the_reference_does(self, batch, cap):
        codec = RansCodec(max_lanes=cap)
        payloads = codec.encode_streams(batch)
        assert payloads == [_reference_encode(s, table, cap) for s, table in batch]
        triples = [(p, t.serialize(), s.size) for p, (s, t) in zip(payloads, batch)]
        for (symbols, _), decoded in zip(batch, RansCodec().decode_streams(triples)):
            assert np.array_equal(decoded, symbols)


class TestLaneLimit:
    @pytest.mark.parametrize(
        "blocks, lanes",
        [(1, MAX_LANES), (2, 2048), (8, 512), (12, 512), (15, 512), (16, 256), (18, 256),
         (144, 32), (MAX_LANES, 1), (10**6, 1)],
    )
    def test_the_smallest_power_of_two_that_fills_the_batch(self, blocks, lanes):
        assert lane_limit(blocks) == lanes
        assert blocks * lanes >= MAX_LANES and (lanes == 1 or blocks * lanes < 2 * MAX_LANES)

    def test_a_lone_stream_keeps_its_width(self):
        assert [_pick_lanes(n, lane_limit(1)) for n in (1, 64, 32768, 1 << 20)] == [
            _pick_lanes(n) for n in (1, 64, 32768, 1 << 20)
        ] == [1, 2, 1024, MAX_LANES]


class TestPipelineBatchEncode:
    """A 40x70x35 Miranda crop in 32^3 blocks: interpolation and Lorenzo
    blocks of 32 767 down to 144 symbols give one file's batch three round
    counts (64, 48 and 36)."""

    @staticmethod
    def _blob(shared: bool) -> bytes:
        field = generate_field("miranda", "density", scale=0.25, seed=12).data[:40, :70, :35]
        compressor = create_blocked_compressor(
            "sz3", block_shape=32, entropy_stage="rans", adaptive_predictor=True,
            shared_codebook=shared,
        )
        blob = compressor.compress(field, ErrorBound.relative(1e-3), verify=False).blob
        assert set(blob.metadata["block_codecs"]) == {"rans"}
        return blob.to_bytes()

    @pytest.mark.parametrize("shared", [False, True], ids=["per-block", "shared"])
    def test_a_files_batch_writes_what_blocks_settled_one_by_one_write(self, monkeypatch, shared):
        rounds: List[set] = []
        real_encode = RansCodec.encode_streams

        def spy(self, streams):
            rounds.append({-(-s.size // _pick_lanes(s.size)) for s, _ in streams})
            return real_encode(self, streams)

        monkeypatch.setattr(RansCodec, "encode_streams", spy)
        batched = self._blob(shared)
        assert rounds == [{36, 48, 64}]  # one batch for the file
        real_settle = PredictionPipelineCompressor.settle
        monkeypatch.setattr(
            PredictionPipelineCompressor, "settle",
            lambda self, results: [real_settle(self, [result])[0] for result in results],
        )
        assert self._blob(shared) == batched


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


def _bulk_field() -> np.ndarray:
    """The bulk and streamed workloads' Miranda field: 64x96x96, 18 blocks of 32^3."""
    return generate_field("miranda", "density", scale=0.25, seed=12).data


def _lanes(blob: CompressedBlob) -> List[int]:
    """Each rANS block's lane count, read from its payload header."""
    sections = [open_section(blob, entry["section"]) for entry in blob.block_index]
    return [1 << inner.get_section("codes_payload")[1] for inner in sections]


class TestPlanWidth:
    """A block's bytes depend on its symbols, its model and its file's plan: an
    18-block file codes every block in 256 lanes, whichever path settles it."""

    @staticmethod
    def _per_block(**options) -> PredictionPipelineCompressor:
        return create_blocked_compressor(
            "sz3", block_shape=32, entropy_stage="rans", adaptive_predictor=True,
            shared_codebook=False, **options,
        )

    @staticmethod
    def _blob(
        compressor: PredictionPipelineCompressor, field: np.ndarray, bound: ErrorBound = BOUND_1E3
    ) -> bytes:
        return compressor.compress(field, bound, verify=False).blob.to_bytes()

    @pytest.fixture(scope="class")
    def settled(self) -> bytes:
        return self._blob(self._per_block(), _bulk_field())

    def test_an_18_block_file_codes_every_block_in_256_lanes(self, settled):
        blob = CompressedBlob.from_bytes(settled)
        assert blob.num_blocks == 18 and blob.metadata["block_codecs"] == {"rans": 18}
        assert _lanes(blob) == [256] * 18 == [lane_limit(18)] * 18

    @pytest.mark.parametrize("path", ["streamed", "one-by-one", "threads", "helper-lane"])
    def test_every_path_writes_the_files_settle(self, settled, path, monkeypatch):
        field = _bulk_field()
        if path == "streamed":  # the blocks ``encode_blocks`` hands the stream
            blocks = self._per_block().encode_blocks(field, BOUND_1E3.absolute_for(field))[1]
            blob = CompressedBlob.from_bytes(settled)  # its header says what ``compress`` did
            assert blocks == [
                (entry, blob.container.get_section(entry["section"]))
                for entry in blob.block_index
            ]
            return
        if path == "one-by-one":
            real_settle = PredictionPipelineCompressor.settle
            monkeypatch.setattr(
                PredictionPipelineCompressor, "settle",
                lambda self, results: [real_settle(self, [result])[0] for result in results],
            )
            blob = self._blob(self._per_block(), field)
        elif path == "threads":
            monkeypatch.setattr(sz_pipeline, "_POOL_GRAIN_ELEMENTS", 1)
            fanned = []
            pool = ParallelExecutor(block_workers=2).map_blocks

            def executor(func, items):
                fanned.append(len(items))
                return pool(func, items)

            blob = self._blob(self._per_block(block_executor=executor), field)
            assert fanned == [18]
        else:
            blob = self._blob(self._per_block(helper_lane=LANE), field)
        assert blob == settled


# --------------------------------------------------------------------------- #
# Decision data: rANS against Huffman (``python tests/test_rans.py --table``)
# --------------------------------------------------------------------------- #
def decision_cells(data: np.ndarray, repeats: int = 3) -> Dict[Tuple[str, str], Tuple[int, float]]:
    """``(mode, codec) -> (blob bytes, process CPU ms)`` of one file: the adaptive
    sz3 pipeline in 32-blocks at REL 1e-3, encode plus decode, median of ``repeats``."""
    cells = {}
    for mode, shared in (("shared", True), ("per-block", False)):
        for stage in ("huffman", "rans"):
            compressor = create_blocked_compressor(
                "sz3", block_shape=32, entropy_stage=stage, adaptive_predictor=True,
                shared_codebook=shared,
            )
            times = []
            for _ in range(repeats):
                start = time.process_time()
                blob = compressor.compress(data, BOUND_1E3, verify=False).blob
                compressor.decompress(blob)
                times.append(time.process_time() - start)
            cells[mode, stage] = len(blob.to_bytes()), 1e3 * float(np.median(times))
    return cells


def main(argv: List[str]) -> None:
    if argv != ["--table"]:
        raise SystemExit("usage: python tests/test_rans.py --table")
    from test_adaptive_selector import SCALES, _field

    files = {app: _field(app) for app in SCALES}
    files["bulk miranda"] = _bulk_field()
    columns = [(mode, stage) for mode in ("shared", "per-block") for stage in ("huffman", "rans")]
    print(f"{'file':13}" + "".join(f" {f'{mode} {stage}':>26}" for mode, stage in columns))
    print(f"{'':13}" + " {:>14} {:>11}".format("bytes", "CPU ms") * len(columns))
    for name, data in files.items():
        cells = decision_cells(data)
        row = "".join(f" {cells[key][0]:14} {cells[key][1]:11.1f}" for key in columns)
        print(f"{name:13}{row}")


if __name__ == "__main__":
    main(sys.argv[1:])
