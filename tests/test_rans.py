"""Unit and edge-case tests for the interleaved rANS entropy coder.

Covers the frequency model's corners (single-symbol alphabets, skew far
past the 12-bit quantisation resolution, alphabets too large for a
table), the codec's round-trip contract across stream shapes, the
lockstep batch decode (equal to decoding each stream alone, and failing
whole on any corrupt member), the lockstep batch encode (byte-equal to a
scalar one-lane-at-a-time reference, inside the pipeline too), and the
pipeline-level fallback: a block whose alphabet cannot fit a rANS table
must degrade to Huffman *inside* a rans-configured pipeline and say so
in its per-block codec tag.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.compression import CompressedBlob, ErrorBound, create_blocked_compressor
from repro.compression.encoders.huffman import symbol_frequencies
from repro.compression.encoders.rans import (
    MAX_TABLE_SYMBOLS,
    PROB_SCALE,
    RansCodec,
    RansFrequencyTable,
    _pick_lanes,
    quantize_frequencies,
)
from repro.compression.sz.pipeline import PredictionPipelineCompressor
from repro.datasets import generate_field
from repro.errors import EncodingError

from huffman_reference import histogram

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
        table = RansFrequencyTable.from_frequencies(histogram({-5: 7, 0: 100, 12345: 3}))
        restored = RansFrequencyTable.deserialize(table.serialize())
        assert np.array_equal(restored.symbols, table.symbols)
        assert np.array_equal(restored.freqs, table.freqs)

    def test_alphabet_too_large_returns_none(self):
        frequencies = {i: 1 for i in range(MAX_TABLE_SYMBOLS + 1)}
        assert RansFrequencyTable.try_from_frequencies(histogram(frequencies)) is None

    def test_span_too_wide_returns_none(self):
        assert RansFrequencyTable.try_from_frequencies(histogram({0: 1, 1 << 32: 1})) is None

    def test_truncated_table_rejected(self):
        table = RansFrequencyTable.from_frequencies(histogram({0: 1, 1: 1}))
        with pytest.raises(EncodingError):
            RansFrequencyTable.deserialize(table.serialize()[:-1])

    def test_gather_escape_on_unknown_symbol(self):
        table = RansFrequencyTable.from_frequencies(histogram({0: 1, 4: 1}))
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
        wide = histogram(dict.fromkeys(range(1 << 16), 1))
        assert RansFrequencyTable.try_from_frequencies(wide) is None

    def test_shared_table_escape_returns_none(self):
        codec = RansCodec()
        table = RansFrequencyTable.from_frequencies(histogram({1: 10, 2: 5}))
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


def _reference_encode(symbols: np.ndarray, table: RansFrequencyTable) -> Optional[bytes]:
    """Scalar rANS, one lane at a time, written from the module docstring.

    Symbol ``i`` is on lane ``i % lanes``, the last round is padded with
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
    lanes = _pick_lanes(symbols.size)
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
    pooled = RansFrequencyTable.from_frequencies(symbol_frequencies(np.concatenate(streams)))
    shared = draw(st.lists(st.booleans(), min_size=len(streams), max_size=len(streams)))
    batch = [
        (s, pooled if use else RansFrequencyTable.from_frequencies(symbol_frequencies(s)))
        for s, use in zip(streams, shared)
    ]
    constant = np.full(draw(st.integers(1, 3000)), -5, dtype=np.int64)
    batch.append((constant, RansFrequencyTable.from_frequencies(histogram({-5: constant.size}))))
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
    @given(batch=_encode_batches(), data=st.data())
    def test_a_stream_that_escapes_its_table_leaves_the_others_alone(self, batch, data):
        codec = RansCodec()
        alone = codec.encode_streams(batch)
        victim = data.draw(st.sampled_from([i for i, (s, _) in enumerate(batch) if s.size]))
        symbols = batch[victim][0]
        absent = histogram({int(symbols.max()) + 1: 1})
        batch[victim] = (symbols, RansFrequencyTable.from_frequencies(absent))
        escaped = codec.encode_streams(batch)
        assert escaped[victim] is None
        assert escaped[:victim] + escaped[victim + 1:] == alone[:victim] + alone[victim + 1:]


class TestPipelineBatchEncode:
    """A 40x70x33 Miranda crop in 32^3 blocks: interpolation and Lorenzo
    blocks of 32 767 down to 48 symbols give one file's batch three round
    counts (64, 48 and 32)."""

    @staticmethod
    def _blobs(shared: bool) -> Tuple[bytes, bytes]:
        field = generate_field("miranda", "density", scale=0.25, seed=12).data[:40, :70, :33]
        compressor = create_blocked_compressor(
            "sz3", block_shape=32, entropy_stage="rans", adaptive_predictor=True,
            shared_codebook=shared,
        )
        bound = ErrorBound.relative(1e-3).absolute_for(field)
        bulk = compressor.compress(field, ErrorBound(value=bound, mode="abs"), verify=False).blob
        # The streamed encode (``StreamingPipeline._encode_file``): a
        # sampled shared table, every block started, then one settle.
        plan = compressor.block_plan(field)
        book = compressor.prepare_shared_codebook(field, plan, bound)
        header = compressor.blocked_header(field, plan, bound, shared_book=book)
        started = [compressor._start_block(field, plan, spec, bound, book) for spec in plan]
        streamed = CompressedBlob.assemble(header, compressor.settle(started))
        assert set(bulk.metadata["block_codecs"]) == {"rans"}
        return bulk.to_bytes(), streamed.to_bytes()

    @pytest.mark.parametrize("shared", [False, True], ids=["per-block", "shared"])
    def test_a_files_batch_writes_what_blocks_settled_one_by_one_write(self, monkeypatch, shared):
        rounds: List[set] = []
        real_encode = RansCodec.encode_streams

        def spy(self, streams):
            rounds.append({-(-s.size // _pick_lanes(s.size)) for s, _ in streams})
            return real_encode(self, streams)

        monkeypatch.setattr(RansCodec, "encode_streams", spy)
        batched = self._blobs(shared)
        assert rounds == [{32, 48, 64}] * 2  # one batch per file: bulk, then streamed
        real_settle = PredictionPipelineCompressor.settle
        monkeypatch.setattr(
            PredictionPipelineCompressor, "settle",
            lambda self, results: [real_settle(self, [result])[0] for result in results],
        )
        assert self._blobs(shared) == batched


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
